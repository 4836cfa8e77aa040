(** Choice points — the heart of the paper's programming model.

    Instead of hard-coding a policy ("forward the join to a random
    child"), a handler builds a {!t} listing the alternatives it could
    take, each annotated with a feature vector, and asks the runtime to
    pick one. The runtime sees only the label, the per-alternative
    features and the arity — never the application values — so one
    resolver implementation serves every protocol. A choice declares its
    feature names once, as a {!schema}; each alternative carries one
    float per name, in schema order. *)

type schema = private { names : string array; by_name : int array  (** columns in name order *) }
(** Resolvers tell schemas apart by physical identity ([==]): build
    each one once and share it across decisions. *)

val schema : string list -> schema
(** @raise Invalid_argument if a name is repeated. *)

val no_features : schema
(** The empty schema: {!make}'s default. *)

val width : schema -> int

type 'a alternative = { value : 'a; features : float array  (** in schema order *) }
type 'a t = private { label : string; schema : schema; alternatives : 'a alternative list }

val alt : ?features:float array -> 'a -> 'a alternative
(** [features] defaults to none. *)

val make : label:string -> ?schema:schema -> 'a alternative list -> 'a t
(** [schema] defaults to {!no_features}. @raise Invalid_argument if the
    label or the list is empty, or an alternative does not carry one
    feature per schema name. *)

val of_values : label:string -> ?schema:schema -> ?feature:('a -> float array) -> 'a list -> 'a t
(** Convenience: wraps plain values, deriving features with [feature]
    (default: none). *)

val arity : 'a t -> int

val nth : 'a t -> int -> 'a
(** @raise Invalid_argument if the index is out of range. *)

(** A resolver's view of a pending choice: everything except the
    application values. [occurrence] counts choice points already
    resolved while processing the current event, so a forced replay can
    target exactly one of several nested choices. *)
type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_schema : schema;  (** the choice's own, not a copy *)
  site_features : float array;  (** column [c] of alternative [a] at [a * width + c] *)
}

val site : node:int -> occurrence:int -> 'a t -> site

val column : string -> site -> int
(** [column name] maps a site to [name]'s column in the site's schema,
    [-1] when the schema lacks it. It compares strings the first time
    it meets a schema only, and finds the answer by physical identity
    after that; it remembers 8 schemas at most. Build it once per
    resolver and read [site_features.(alt * width + column)]. *)

val value : site -> int -> alt:int -> default:float -> float
(** [value site c ~alt ~default] reads column [c] of alternative [alt],
    or answers [default] when [c] is [-1]. *)
