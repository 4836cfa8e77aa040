(** The engine's overload layer: bounded mailboxes with priority
    eviction, the backlog's service delay, and the bookkeeping of
    targeted chaff bursts. {!Sim} owns the events; this module owns the
    tables.

    Every queued arrival takes a ticket ([did]) from {!enqueue}; its
    Deliver (or Chaff) event hands the ticket back through
    {!processed}. An arrival evicted while queued is tombstoned, and
    its event is then skipped. Nothing here draws randomness. *)

type config = {
  mailbox_capacity : int;
      (** max in-flight deliveries per destination node; 0 = unbounded.
          A full mailbox evicts the lowest-priority queued arrival (by
          [App.priority], ties oldest-first, so with [priority = None]
          the oldest), or refuses the newcomer when everything queued
          ranks strictly above it. *)
  service_time : float;
      (** seconds of extra delivery delay per message already queued at
          the destination: the backlog model that makes deep queues
          cost latency; 0 = free *)
}

val default : config
(** [{mailbox_capacity = 0; service_time = 0.}]: with this value the
    layer keeps its depth counts but changes no behaviour and draws no
    randomness, so seeded runs stay byte-identical. *)

type t

val create : config -> t
(** A fresh layer.
    @raise Invalid_argument on a negative [mailbox_capacity] or a
    negative or NaN [service_time]. *)

val copy : t -> t
(** An independent deep copy, for speculative forks. *)

val config : t -> config

val chaff_latency : float
(** Fixed transfer latency of a synthetic burst arrival. *)

val chaff_prio : int
(** Priority of chaff: below anything an application can send. *)

val enqueue :
  t ->
  on_shed:('ctx -> unit) ->
  'ctx ->
  de:int ->
  prio:int ->
  int option
(** Admits an arrival to endpoint [de] through the mailbox bound,
    evicting a queued victim when one ranks at or below [prio].
    [Some did] is its ticket; [None] means it was shed. [on_shed ctx]
    is called once per shed message. ([ctx] travels separately so that
    the hot path builds no closure.) *)

val service_delay : t -> int -> float
(** The backlog delay of the arrival just queued at a node: the
    service time of everything queued ahead of it. *)

val processed : t -> int -> bool
(** Hands a ticket back when its event fires; [false] when the arrival
    was shed while queued, so the event must not touch the node. *)

val is_shed : t -> int -> bool
(** Whether a ticket is a tombstone still waiting for its event. *)

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

val stop_burst : t -> int -> unit
(** Forgets the node's burst, if one is running. *)

val burst_rate : t -> int -> gen:int -> float option
(** The rate of the node's burst while generation [gen] is still the
    running one. *)
