(** Choice points — the heart of the paper's programming model.

    Instead of hard-coding a policy ("forward the join to a random
    child"), a handler builds a {!t} listing the alternatives it could
    take, each annotated with a label and a feature vector, and asks the
    runtime to pick one. The runtime sees only the label, the
    per-alternative features and the arity — never the application
    values — so one resolver implementation serves every protocol. *)

type 'a alternative = {
  value : 'a;
  features : (string * float) list;
      (** numeric hints the resolver may use, e.g.
          [("rtt_ms", 12.); ("depth", 3.)] *)
  describe : string;  (** for traces and debugging *)
}

type 'a t = private { label : string; alternatives : 'a alternative list }

val alt : ?features:(string * float) list -> ?describe:string -> 'a -> 'a alternative
(** [describe] defaults to ["-"]. *)

val make : label:string -> 'a alternative list -> 'a t
(** @raise Invalid_argument if the alternative list is empty or the
    label is empty. *)

val of_values : label:string -> ?feature:('a -> (string * float) list) -> 'a list -> 'a t
(** Convenience: wraps plain values, deriving features with [feature]
    (default: none). *)

val arity : 'a t -> int

val nth : 'a t -> int -> 'a
(** @raise Invalid_argument if the index is out of range. *)

val label : 'a t -> string

val feature_matrix : 'a t -> (string * float) list array
(** Features of each alternative, in order — what a resolver sees. *)

(** A resolver's view of a pending choice: everything except the
    application values. [occurrence] counts choice points already
    resolved while processing the current event, so a forced replay can
    target exactly one of several nested choices. *)
type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_features : (string * float) list array;
}

val site : node:int -> occurrence:int -> 'a t -> site

val feature : site -> alt:int -> string -> float option
(** Looks up one named feature of one alternative: [None] when [alt]
    is out of range or the alternative has no feature of that name.
    Names match by [String.equal], and when a name is bound more than
    once the first binding wins. *)

val pp_site : Format.formatter -> site -> unit
