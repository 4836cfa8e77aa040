(** Causal message spans in a bounded ring.

    A span records one hop of a causal chain: a message (or timer)
    enqueued at one virtual time and resolved at another, tagged with
    the trace id minted at the chain's root send.  The ring keeps the
    most recent [capacity] spans; the totals keep counting so overflow
    is visible. *)

type span = {
  trace : int;  (** trace id of the causal chain this hop belongs to *)
  seq : int;  (** global record order, assigned by the ring *)
  src : int;
  dst : int;
  kind : string;  (** message kind, or ["timer:<id>"] *)
  enqueue : float;  (** virtual time the hop was scheduled, seconds *)
  deliver : float;  (** virtual time the hop resolved, seconds *)
  verdict : string;
      (** ["deliver"], ["duplicate"], ["reorder"], ["drop:<cause>"],
          ["fire"], ... *)
}

type ring

val ring : ?capacity:int -> unit -> ring
(** Default capacity 65536. Storage starts small and doubles up to the
    capacity as spans arrive. @raise Invalid_argument if not
    positive. *)

val record :
  ring ->
  trace:int ->
  src:int ->
  dst:int ->
  kind:string ->
  enqueue:float ->
  deliver:float ->
  verdict:string ->
  unit

val spans : ring -> span list
(** Retained spans, oldest first, rebuilt from the ring's columns. *)

val recorded : ring -> int
(** Total spans ever recorded. *)

val dropped : ring -> int
(** Spans evicted by the capacity bound. *)

val to_json : span -> Json.t
val of_json : Json.t -> (span, string) result
val to_json_lines : ring -> string list
