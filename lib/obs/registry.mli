(** Interned metrics: counters, gauges, and latency histograms, keyed
    by name plus string labels.

    Handles are interned — asking twice for the same (name, labels)
    pair returns the same underlying metric, whatever the label order,
    so instrumented code can re-derive a handle cheaply and hot paths
    can cache one.  Registering the same key as a different metric kind
    raises.

    Metrics whose values depend on wall-clock time (throughput, phase
    timings) should be registered with [~volatile:true]; the default
    export excludes them so that a given seed produces a byte-identical
    metrics file run over run. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : ?volatile:bool -> t -> name:string -> labels:(string * string) list -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val probe : t -> name:string -> labels:(string * string) list -> (unit -> int) -> unit
(** A counter whose value is read from the function at export instead
    of being incremented — for a component that already keeps the
    count in its own store. Registering the key again replaces the
    function. *)

val gauge : ?volatile:bool -> t -> name:string -> labels:(string * string) list -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  ?volatile:bool ->
  ?capacity:int ->
  t ->
  name:string ->
  labels:(string * string) list ->
  lo:float ->
  hi:float ->
  buckets:int ->
  histogram
(** Bucketed histogram backed by {!Dsim.Stats}: exact count/sum/mean,
    reservoir-sampled percentiles (default [capacity] 4096, seeded
    deterministically from the metric key), and separate
    underflow/overflow counts.  Bounds are fixed at first registration.
    @raise Invalid_argument unless [lo < hi] and [buckets > 0]. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int

val cardinality : t -> int
(** Number of registered (name, labels) series. *)

val to_json : ?include_volatile:bool -> t -> Json.t list
(** One object per metric, sorted by name then labels — the order is
    deterministic and independent of registration order.  [volatile]
    metrics are excluded unless [include_volatile] (default false). *)

val to_json_lines : ?include_volatile:bool -> t -> string list

val pp : Format.formatter -> t -> unit
(** Human-oriented dump, same order as the export. *)
