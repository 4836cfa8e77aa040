(** The application signature — what a protocol must provide to run on
    the engine (the Mace-framework substitute).

    A node is a state machine: [init] produces the boot state, guarded
    {!Handler.t}s consume messages, [on_timer] consumes timer fires.
    Handlers are pure ([state] must be immutable); all effects travel
    through the returned {!Action.t} list. This purity is load-bearing:
    it makes checkpoints O(1) and lets the model checker and the
    lookahead machinery clone and replay executions freely. *)

module type APP = sig
  type state
  type msg

  val name : string

  val equal_state : state -> state -> bool
  (** Structural equality; used by the explorer to deduplicate visited
      global states. *)

  val pp_state : Format.formatter -> state -> unit
  val pp_msg : Format.formatter -> msg -> unit

  val msg_kind : msg -> string
  (** Coarse message class, e.g. ["join"]. Names the implicit handler
      choice and keys event filters installed by execution steering. *)

  val msg_bytes : msg -> int
  (** Wire size used by the network emulator for transmission delay. *)

  val msg_codec : msg Wire.Codec.t option
  (** Real wire encoding, when the app has one. The engine's
      corruption fault acts on this encoding — flipped bytes are run
      back through [decode], so codec error paths are exercised by
      genuinely garbled inputs. [None] opts out: corrupted messages
      are then dropped without a decode attempt. *)

  val validate : (msg -> (unit, string) result) option
  (** Application-level admission check, run on every delivered message
      before any handler. [Error reason] drops the message (surfaced as
      a drop with cause ["invalid:<reason>"]); byzantine-mutated
      deliveries that fail it count as [stats.byz_rejected], ones that
      pass as [byz_accepted]. The check must be pure, total and cheap
      (it runs on the delivery hot path), and must accept {e every}
      message an honest node can produce — it exists to bounce
      semantically-mutated traffic (out-of-range ballots, foreign key
      ranges, impossible digests), not to second-guess the protocol.
      [None] skips the check at zero cost. *)

  val fingerprint : (state -> int) option
  (** Cheap structural fingerprint used by the explorer to deduplicate
      visited worlds without rendering states through [pp_state].

      Contract: the fingerprint must induce {e the same} equivalence
      classes as the [pp_state] rendering on reachable states — states
      with equal prints must hash equal (or dedup misses worlds it used
      to merge), and states with distinct prints should hash distinct
      (or dedup merges worlds it used to keep apart). When [pp_state]
      prints a lossy summary, mirror exactly the fields it prints.
      [None] falls back to hashing the [pp_state] rendering itself,
      which is always class-exact and, thanks to per-state caching in
      the explorer, already far cheaper than the historical
      whole-world digest. *)

  val durable : (state, msg) Durability.t option
  (** What this protocol must persist to survive a crash, and how to
      recover it (see {!Durability}). [None] means total amnesia on
      restart — the engine then reboots the node through [init] alone,
      exactly as before the persistence layer existed, at zero cost. *)

  val degraded : (state -> bool) option
  (** Self-reported degraded mode: [Some f] when the protocol can enter
      a reduced-service mode under suspected failures (a kv store going
      read-only, a paxos proposer stepping down). The engine
      edge-detects transitions of [f] across every state change and
      counts them ([stats.degraded_entries] / [degraded_exits], plus
      per-node [Obs.Registry] counters), and the chaos soak asserts
      every node has exited the mode after the final heal. [None] means
      the protocol has no such mode — nothing is tracked. *)

  val priority : (msg -> int) option
  (** Relative shed priority of a message, higher = more important.
      Consulted only when a bounded mailbox overflows: the
      lowest-priority queued message is shed first (ties broken
      oldest-first). [None] means all messages rank equal, so the
      oldest is shed. Must be cheap and total; it runs on the delivery
      hot path for every queued message of an overflowing node. *)

  val init : Ctx.t -> state * msg Action.t list
  (** Boot: runs once when the node joins the system. *)

  val receive : (state, msg) Handler.t list
  (** Guarded handlers; several may apply to one message (NFA style). *)

  val on_timer : Ctx.t -> state -> string -> state * msg Action.t list

  val properties : (state, msg) View.t Core.Property.t list
  (** Exposed safety/liveness properties (§3.2). *)

  val objectives : (state, msg) View.t Core.Objective.t list
  (** Exposed performance objectives (§3.2); higher is better. *)

  val generic_msgs : state -> (Node_id.t * msg) list
  (** Messages an under-specified {e generic node} (§3.3.2) could
      plausibly send to a node in [state], as (sender, message) pairs
      with a fictitious sender id. Bounded and typically small; the
      explorer injects these to look beyond the collected
      neighbourhood. Return [[]] to disable. *)
end
