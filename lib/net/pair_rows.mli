(** Per-pair state indexed by endpoint: the entry for the directed pair
    [(i, j)] lives at [rows.(i).(j)], so a lookup hashes nothing and
    allocates nothing. Both {!Netmodel} and {!Failure_detector} keep
    their cells here.

    A row is allocated on the first {!set} in it and grown (at least
    doubled) as later slots need, so a table costs nothing for rows
    never written and nothing is sized to [endpoints²] up front. Every
    slot not yet written holds the table's [absent] value: the caller
    picks one that reads as "nothing known" and never writes to it.
    Reads out of range, negative indices included, return [absent]
    too. *)

type 'a t

val create : absent:'a -> 'a t
(** An empty table; no row is allocated. *)

val find : 'a t -> int -> int -> 'a
(** The entry at [(i, j)], or [absent] when none was written there. *)

val set : 'a t -> int -> int -> 'a -> unit
(** Stores an entry at [(i, j)], allocating or growing row [i] as
    needed.
    @raise Invalid_argument on a negative index. *)

val copy : 'a t -> ('a -> 'a) -> 'a t
(** [copy t f] has the same shape as [t], with [f e] for each written
    entry [e]; [absent] slots stay [absent]. *)

val iter : 'a t -> (int -> int -> 'a -> unit) -> unit
(** Every written entry, rows ascending, then columns ascending. *)

val fold_row_rev : 'a t -> int -> ('a -> int -> 'b -> 'b) -> 'b -> 'b
(** [fold_row_rev t i f init] folds [f] over row [i]'s written entries
    with their column, columns descending — so consing builds an
    ascending list. A missing row folds nothing. *)
