(** Network emulator: turns a static {!Topology} into per-message
    delivery decisions, with dynamic overrides for experiments
    (degraded links, partitions, crashed endpoints).

    This is the ModelNet substitute: the engine asks it, for each
    outbound message, whether the message arrives and after how long.

    Endpoints are the topology's, [0 .. Topology.size - 1]. Every
    function that pins state to an endpoint or a pair (overrides, pair
    faults, isolation) raises [Invalid_argument] outside that range. *)

type t

(** A verdict that delivers one copy ([Deliver], [Corrupt], [Mutate])
    carries no delay: it is {!delay}, read before the next {!judge}. So
    the fault-free verdict is a constant and judging it allocates
    nothing. *)
type verdict =
  | Deliver  (** arrives after {!delay} seconds *)
  | Drop of string  (** lost; the string names the cause *)
  | Duplicate of float list
      (** arrives more than once; one delivery per listed delay, the
          first being the original copy *)
  | Corrupt of { flip : float }
      (** arrives after {!delay} seconds but garbled: each payload byte is
          flipped with probability [flip] (at least one bit always
          flips). The engine applies the flips to the wire encoding,
          so a corrupted message manifests as a decode failure or a
          checksum drop — never as a clean payload. *)
  | Mutate
      (** arrives after {!delay} seconds, byzantine-mutated: the
          engine runs the wire encoding through {!Wire.Mutator} and
          delivers a typed, decodes-clean perturbation of the payload
          to the receiving handler (falling back to the clean message
          when no mutant survives the re-decode guarantee). Unlike
          [Corrupt], this is the fault the transport checksum {e
          cannot} catch — it exercises application validators. *)

type faults = {
  duplicate_rate : float;  (** probability a delivered message is duplicated *)
  duplicate_copies : int;  (** ghost copies per duplication (>= 1) *)
  corrupt_rate : float;  (** probability a delivered message is garbled *)
  corrupt_flip : float;  (** per-byte flip probability for garbled messages *)
  reorder_rate : float;  (** probability a message is held back *)
  reorder_window : float;
      (** extra seconds (uniform in [0, window]) a held-back message
          waits — later sends overtake it, inverting delivery order
          beyond what jitter produces *)
  mutate_rate : float;
      (** probability a delivered message is byzantine-mutated; drawn
          after every other fault, so switching it off reproduces the
          pre-mutation RNG stream exactly *)
}

val no_faults : faults
(** All rates zero: the channel behaves exactly as before the
    adversarial layer existed (same RNG draws, same verdicts). *)

val create : ?jitter:float -> ?serialize_access:bool -> rng:Dsim.Rng.t -> Topology.t -> t
(** [jitter] is the standard deviation of multiplicative delay noise
    (default 0.05, i.e. ±5%); set 0. for fully deterministic delays.
    [serialize_access] (default true) models each endpoint's access
    link as a FIFO queue: concurrent transmissions share the uplink
    (and the receiver's downlink) instead of enjoying it in parallel —
    this is what makes a choked seed a real bottleneck. *)

val topology : t -> Topology.t

val copy : t -> t
(** Independent copy (own RNG and override tables) used when forking a
    simulation for lookahead. *)

val judge : t -> now:float -> src:int -> dst:int -> bytes:int -> verdict
(** Delivery decision for one message sent at time [now] (seconds).
    Consults overrides, then the topology path, then queues the
    transmission on both access links, then samples loss and jitter. *)

val delay : t -> float
(** The delay in seconds of the latest verdict {!judge} returned that
    delivers one copy: [Deliver], [Corrupt] or [Mutate]. *)

val path : t -> src:int -> dst:int -> Linkprop.t
(** Effective path after overrides — what a measurement would see. *)

val occupy_access : t -> endpoint:int -> now:float -> bytes:int -> unit
(** Charges background control traffic (e.g. runtime checkpoints) to
    the endpoint's access links: both its uplink and downlink are busy
    for the transmission time of [bytes] at the endpoint's access
    bandwidth, delaying subsequent application messages. No-op when
    access serialization is disabled. *)

val global_faults : t -> faults
(** The fault profile applied to every pair without a per-pair entry. *)

val set_faults : t -> faults -> unit
(** Replaces the global fault profile. Raises [Invalid_argument] on
    rates outside [0,1], [duplicate_copies < 1] or a negative window. *)

val set_pair_faults : t -> src:int -> dst:int -> faults -> unit
(** Pins the directed pair to its own fault profile, shadowing the
    global one. Same validation as {!set_faults}. *)

val clear_pair_faults : t -> src:int -> dst:int -> unit

val faults_of : t -> src:int -> dst:int -> faults
(** Effective fault profile for the directed pair. *)

val reorders : t -> int
(** How many messages the reorder fault has held back so far. The
    verdict for a held-back message is still [Deliver] (with the
    inflated delay), so this counter is the only witness that the
    fault fired — the engine surfaces it as [stats.messages_reordered]. *)

val set_override : t -> src:int -> dst:int -> Linkprop.t -> unit
(** Pins the directed pair to an explicit property. *)

val clear_override : t -> src:int -> dst:int -> unit

val cut : t -> src:int -> dst:int -> unit
(** Makes the directed pair lossy with probability 1 (a partition). *)

val cut_bidirectional : t -> int -> int -> unit

val heal : t -> src:int -> dst:int -> unit
(** Removes any override, restoring the topology path. *)

val isolate : t -> int -> unit
(** Cuts every pair touching the endpoint, both directions. *)

val rejoin : t -> int -> unit
(** Heals every pair touching the endpoint. *)

val is_isolated : t -> int -> bool
