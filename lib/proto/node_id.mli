(** Node identities.

    A node id doubles as the node's endpoint index in the network
    topology, which keeps the engine's address translation trivial. *)

type t

val of_int : int -> t
(** @raise Invalid_argument if negative. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
(** [n<int>], the same text {!pp} prints. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
