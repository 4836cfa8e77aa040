(** The engine's reliable-delivery layer: sequence numbers, the
    sender's pending sends and the receiver's seen-set, for any message
    type. {!Sim} schedules the retransmit timers and acks; this module
    owns the tables.

    Sequence numbers are dense from 0, so no table here hashes. The
    pending sends sit in a ring indexed by [seq] modulo its capacity (a
    power of two), which holds every seq from the oldest still pending
    to the newest issued: acking the oldest moves the ring's start past
    every acked seq behind it, and a send that would wrap onto the
    oldest doubles the ring. Its memory is therefore bounded by the span
    from the oldest pending seq to the newest, not by the number
    pending: one send left unacked while 10,000 later ones come and go
    holds a ring of 16,384 slots until it resolves. The seen-set is one
    bit per seq. *)

type config = {
  base_timeout : float;  (** the first retransmission fires after this many seconds *)
  backoff : float;  (** timeout multiplier per retry (>= 1) *)
  max_retries : int;
      (** retransmissions before the send is abandoned and the sending
          app is notified through [on_timer] with the synthetic id
          ["rel.giveup:<kind>"] *)
  jitter : float;
      (** up to this fraction of random spread added to each timeout, so
          retransmissions desynchronise *)
  ack_bytes : int;  (** wire size of an ack, for Netem's delay model *)
}

val default : config
(** [{base_timeout = 0.25; backoff = 2.0; max_retries = 5;
    jitter = 0.1; ack_bytes = 24}] *)

(** One tracked send awaiting its ack. *)
type 'msg entry = {
  src : Proto.Node_id.t;
  dst : Proto.Node_id.t;
  msg : 'msg;
  tries : int;  (** retransmissions performed so far *)
}

type 'msg t

val create : config -> 'msg t
(** @raise Invalid_argument on non-positive [base_timeout] or
    [ack_bytes], [backoff < 1], or negative [max_retries]/[jitter]. *)

val copy : 'msg t -> 'msg t
(** An independent deep copy, for speculative forks. *)

val track : 'msg t -> src:Proto.Node_id.t -> dst:Proto.Node_id.t -> 'msg -> int
(** Registers a send as pending and returns its sequence number. *)

val timeout : 'msg t -> Dsim.Rng.t -> tries:int -> float
(** Retransmission timeout on the [tries]-th retry: exponential
    backoff plus up to [jitter] random spread (one draw when
    [jitter > 0]). The backoff for [tries = 0 .. max_retries] is
    computed once, at {!create}; other values compute it on the call,
    to the same float. *)

val find : 'msg t -> int -> 'msg entry option
(** The pending send with this sequence number, if still unacked. *)

val remove : 'msg t -> int -> unit
(** Forgets a pending send (acked, given up or orphaned). *)

(** What a retransmission timeout did with a pending send. *)
type 'msg timeout =
  | Give_up  (** retry budget exhausted: forgotten *)
  | Resend of 'msg entry  (** counted as one more try; send it again *)
  | Refused of 'msg entry
      (** counted as one more try, but the breaker refused the wire *)

val timed_out :
  'msg t ->
  int ->
  'msg entry ->
  breaker:Net.Circuit_breaker.t option ->
  suspected:(unit -> bool) ->
  pressure:(unit -> float) ->
  now:Dsim.Vtime.t ->
  'msg timeout
(** Applies the retry policy to a pending send whose timer fired while
    its sender is alive: (with a [breaker]) the timeout recorded as
    failure evidence — tripping the pair when the destination is
    [suspected] — and the retry budget, halved while
    the breaker refuses the pair or the sender's [pressure] is at
    least 0.5. [now] is the sender's local time. The entry must be the
    one {!find} returns for the seq: a resend replaces it in place. *)

val ack_bytes : 'msg t -> int

val capacity : 'msg t -> int
(** Slots in the pending ring: 64 at {!create}, then at most twice the
    widest span, oldest pending seq to newest, the table has held. *)

val first_arrival : 'msg t -> int -> bool
(** Records a sequence number at the receiver; [false] when it was
    already seen (a retransmission or a Netem duplicate). *)
