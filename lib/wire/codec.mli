(** Composable binary codecs.

    The runtime's checkpoints travel over the (simulated) network, so
    their sizes must be real: applications describe their state with
    these combinators and the runtime charges the measured bytes to the
    emulated access links. The encoding is a compact, deterministic
    binary format (LEB128 varints, length-prefixed strings); every
    codec round-trips, which the property tests verify. *)

type 'a t

(** Structural description of a codec's wire layout, carried alongside
    the encode/decode closures. Generic tooling (the byzantine
    {!Mutator}) walks it to mutate encoded messages field-by-field
    without knowing the value type. [Tagged] lists the per-case payload
    shapes declared through {!tagged}'s [?cases]; undeclared tags still
    decode, their payloads just stay opaque to shape-aware consumers. *)
type shape =
  | Unit
  | Bool
  | Int
  | Float
  | String
  | Bytes
  | Option of shape
  | List of shape
  | Array of shape
  | Pair of shape * shape
  | Triple of shape * shape * shape
  | Tagged of (int * shape) list

val shape : 'a t -> shape
(** [conv] is structure-transparent: a converted codec reports its
    representation's shape. *)

exception Malformed of string
(** Raised by a codec's decoding half on bad wire data; {!decode}
    catches it. Custom {!conv} validators may raise it directly (any
    other exception they raise is converted to it). *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> ('a, string) result
(** [Error] describes the first malformed byte encountered. *)

val size : 'a t -> 'a -> int
(** [size c v] = [String.length (encode c v)], computed structurally:
    every combinator adds up its parts' lengths without encoding them
    (a {!tagged} value still builds its payload string). *)

(** {1 Primitives} *)

val unit : unit t
val bool : bool t
val int : int t
(** Zig-zag LEB128: small magnitudes (of either sign) stay small. *)

val float : float t
(** IEEE-754 double, 8 bytes. *)

val string : string t
val bytes_ : bytes t

(** {1 Combinators} *)

val option : 'a t -> 'a option t
val list : 'a t -> 'a list t

val collection :
  length:('c -> int) ->
  iter:(('a -> unit) -> 'c -> unit) ->
  of_list:('a list -> 'c) ->
  ?elements_size:('c -> int option) ->
  'a t ->
  'c t
(** A container with [list]'s wire form and shape: [encode] writes
    [length c] and then every element [iter] visits, so it is
    byte-for-byte [encode (list elt)] of that element sequence, and
    decoding hands the elements, in order, to [of_list].
    [elements_size c], when it returns [Some n], is trusted as the
    summed [size elt] of [c]'s elements: a container that keeps a
    running total answers {!size} in O(1). [None] (the default) sums
    the elements. *)

val array : 'a t -> 'a array t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv to_repr of_repr repr] encodes ['a] through its
    representation ['b]. *)

val tagged :
  ?cases:(int * shape) list ->
  ('a -> int * string) ->
  (int -> string -> ('a, string) result) ->
  'a t
(** Low-level escape hatch for sum types: map a value to a
    (tag, payload) pair and back; payloads are produced with [encode]
    of the per-case codec. [cases] (default none) declares each tag's
    payload shape so shape-aware tooling can mutate {e inside}
    payloads and re-tag values to sibling cases; it never affects
    encoding or decoding. *)

(** {1 Generic views}

    A {!view} is the structure-preserving decoding of wire bytes under
    a {!shape}: every int, float, string, collection and tagged case
    becomes an inspectable node. The byzantine mutator decodes to a
    view, perturbs typed nodes, and re-encodes. A tagged payload whose
    tag has no declared shape (or whose declared shape mismatches the
    actual bytes) stays [Raw]. *)

type view =
  | Vunit
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vbytes of bytes
  | Voption of view option
  | Vlist of view list
  | Varray of view array
  | Vpair of view * view
  | Vtriple of view * view * view
  | Vtagged of int * payload

and payload = Raw of string | Shaped of view

val view_codec : shape -> view t
(** Codec over views for the given shape: [decode (view_codec (shape c))]
    accepts exactly what [decode c] accepts structurally (modulo
    [conv]-level validation, which views skip), and encoding a view
    reproduces the wire form byte-for-byte. *)
