(** The simulator's event queue: a binary min-heap keyed by a float
    instant.

    Keys live in a flat [float array], FIFO sequence numbers in an
    [int array] and values in a plain array, so a push allocates nothing
    beyond the occasional doubling of the three columns. Keys compare
    inline. Ties are broken by insertion order (FIFO), which the
    simulator relies on for deterministic processing of simultaneous
    events. Keys must not be NaN. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit

val min_key : 'a t -> float
(** Key of the minimum element, [infinity] if empty. Allocates
    nothing. *)

val pop : 'a t -> 'a
(** Removes and returns the minimum element.
    @raise Invalid_argument if empty. *)

val copy : 'a t -> 'a t
(** Independent copy; preserves ordering and FIFO tie-breaks. *)

val drain : 'a t -> (float * 'a) list
(** Pops everything, returning keys and elements in ascending order. *)

val rev_fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Folds over every element from the last slot of the backing array
    to the first, without materialising a list: consing in a
    [rev_fold] yields the elements in backing-array order. *)
