(** Per-directed-pair circuit breakers.

    A breaker guards the [src -> dst] direction of a link with the
    classic three-state machine: [Closed] (traffic flows; consecutive
    failures are counted), [Open] (traffic is refused outright after 3
    consecutive failures), and — once 5 seconds of virtual time have
    elapsed since the trip — [Half_open] (one probe send per round is
    let through; one success closes the breaker, one failure re-opens
    it and restarts the cooldown).

    The module is the sending-side dual of {!Failure_detector}: the
    detector accrues suspicion from the {e absence} of inbound traffic,
    the breaker accrues state from the {e fate} of outbound traffic
    (acks, retransmission timeouts, sheds). Everything here is pure
    arithmetic over the caller's clock — no randomness, no scheduled
    events — so the half-open probe timer is deterministic and
    {!copy} gives speculative forks an independent snapshot. *)

type t

type state = Closed | Open | Half_open

val create : unit -> t
(** Three consecutive failures trip a pair's breaker; it stays [Open]
    for 5 seconds, then admits one probe per half-open round. *)

val copy : t -> t
(** Independent deep copy, for speculative forks. *)

val record_failure : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> unit
(** Evidence a send from [src] to [dst] failed (retransmission timeout,
    shed, give-up). While [Closed], counts toward the trip threshold;
    while [Half_open], re-opens immediately and restarts the cooldown
    from [now]. *)

val record_success : t -> src:int -> dst:int -> unit
(** Evidence the pair is healthy (an ack came back). Resets the failure
    count and closes the breaker from any state. *)

val trip : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> unit
(** Open the breaker immediately regardless of the failure count — the
    hook for external evidence such as the failure detector crossing
    its phi threshold. Idempotent while already open. *)

val state : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> state
(** Current state as of [now]; an [Open] breaker whose cooldown has
    elapsed reports [Half_open]. Unknown pairs are [Closed]. *)

val allow : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> bool
(** Would a send be admitted now? [Closed]: yes. [Open]: no.
    [Half_open]: yes while the probe budget of the current round is not
    exhausted. Read-only — see {!acquire} for the consuming variant. *)

val acquire : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> bool
(** Like {!allow}, but a [Half_open] admission consumes one probe from
    the round's budget — the engine calls this on the send path so at
    most one probe is in flight per cooldown round. *)

val open_pairs : t -> now:Dsim.Vtime.t -> int
(** Directed pairs currently [Open] or [Half_open], for observability. *)
