(** Safety and liveness properties (paper §3.2).

    Safety properties must hold in every reachable view; the engine
    checks them after each event and the explorer checks them in every
    explored future. A safety verdict reads the view's node states and
    in-flight messages, never its time. Liveness properties are
    approximated, as in CrystalBall, by bounded-horizon reachability:
    the explorer reports a liveness concern if no explored future
    reaches a view satisfying the predicate. *)

type kind = Safety | Liveness

(** A safety verdict kept up to date node by node, for the engine.
    Between two [holds] calls the engine [touch]es the id of every node
    that changed, appeared or left; [holds] reads only those nodes of
    the view and answers what the property's full [holds] would. So
    only a property that reads node states alone may have one. [copy]
    gives an independent tracker in the same position, for a fork. A
    tracker keeps ints and immutable node states, never a view. *)
type 'view tracker = {
  touch : int -> unit;
  holds : 'view -> bool;
  copy : unit -> 'view tracker;
}

type 'view t = {
  name : string;
  kind : kind;
  holds : 'view -> bool;  (** the full-view verdict: the oracle of [track] *)
  track : ('view -> 'view tracker) option;  (** a tracker started on a view *)
}

val safety : name:string -> ?track:('view -> 'view tracker) -> ('view -> bool) -> 'view t
val liveness : name:string -> ('view -> bool) -> 'view t

val check : 'view t list -> 'view -> 'view t list
(** Safety properties violated by the view (liveness ones are never
    reported here — they need a horizon, see [Mc.Explorer]). *)

val start : 'view t -> 'view -> 'view tracker
(** The property's tracker started on the view, or one that calls
    [holds] when it has none. *)
