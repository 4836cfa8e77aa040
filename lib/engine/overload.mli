(** The engine's overload layer: bounded mailboxes and link queues
    with pluggable shed policies, token-bucket and sojourn admission
    at the inject boundary, and the bookkeeping of targeted chaff
    bursts. {!Sim} owns the events; this module owns the tables.

    Every queued arrival takes a ticket ([did]) from {!enqueue}; its
    Deliver (or Chaff) event hands the ticket back through
    {!processed}. An arrival evicted while queued is tombstoned, and
    its event is then skipped. Nothing here draws randomness. *)

type shed_policy = Drop_newest | Drop_oldest | By_priority

type config = {
  mailbox_capacity : int;
  link_capacity : int;
  shed : shed_policy;
  service_time : float;
  admit_rate : float;
  admit_burst : int;
  sojourn_threshold : float;
}
(** Field meanings are documented on {!Sim.Make.overload_config}. *)

val default : config
(** Every knob off. *)

type cause = [ `Mailbox | `Link | `Admission | `Sojourn ]
(** Why a message was shed: a full mailbox or link queue, an empty
    token bucket, or the sojourn gate. *)

type t

val create : config -> now:Dsim.Vtime.t -> t
(** A fresh layer; the token bucket starts full at [now].
    @raise Invalid_argument on negative capacities, negative or NaN
    [service_time]/[admit_rate]/[sojourn_threshold], or non-positive
    [admit_burst]. *)

val copy : t -> t
(** An independent deep copy, for speculative forks. *)

val config : t -> config

val chaff_latency : float
(** Fixed transfer latency of a synthetic burst arrival. *)

val chaff_prio : int
(** Priority of chaff: below anything an application can send. *)

val enqueue :
  t ->
  now:Dsim.Vtime.t ->
  on_shed:('ctx -> cause -> se:int -> de:int -> unit) ->
  'ctx ->
  se:int ->
  de:int ->
  prio:int ->
  int option
(** Admits an arrival from endpoint [se] to [de] through the link and
    mailbox bounds, evicting a queued victim when the policy allows.
    [Some did] is its ticket; [None] means it was shed. [on_shed ctx]
    is called once per shed message — evicted victims first, with
    their own endpoints. ([ctx] travels separately so that the hot
    path builds no closure.) *)

val service_delay : t -> int -> float
(** The backlog delay of the arrival just queued at a node: the
    service time of everything queued ahead of it. *)

val processed : t -> int -> bool
(** Hands a ticket back when its event fires; [false] when the arrival
    was shed while queued, so the event must not touch the node. *)

val is_shed : t -> int -> bool
(** Whether a ticket is a tombstone still waiting for its event. *)

val admit :
  t ->
  now:Dsim.Vtime.t ->
  on_shed:('ctx -> cause -> se:int -> de:int -> unit) ->
  'ctx ->
  se:int ->
  de:int ->
  bool
(** Admission at the inject boundary: the token bucket, then the
    sojourn gate. [false] (after calling [on_shed ctx]) refuses the
    inject. *)

val depth : t -> int -> int
(** Live queued arrivals toward one node. *)

val backlog : t -> int
(** Max {!depth} over all nodes. *)

val max_depth : t -> int
(** High-water mark of any node's depth since {!create}. *)

val pressure : t -> int -> float
(** Depth over mailbox capacity, clamped to [0, 1]; [0.] when the
    mailbox is unbounded. *)

val start_burst : t -> int -> rate:float -> int
(** Records a burst toward a node, replacing any running one; returns
    the burst's generation. *)

val stop_burst : t -> int -> bool
(** Forgets the node's burst; [true] when one was running. *)

val burst_rate : t -> int -> gen:int -> float option
(** The rate of the node's burst while generation [gen] is still the
    running one. *)
