(** The simulation engine: runs an {!Proto.App_intf.APP} over the
    discrete-event substrate and the network emulator.

    One engine instance is one deployment. Nodes are spawned, killed
    and restarted explicitly; virtual time advances only through
    {!run_until} / {!run_for} / {!step}. All randomness derives from
    the creation seed, so runs are bit-reproducible.

    The engine owns choice resolution: handlers call
    [ctx.choose] and the installed policy answers. Three families are
    built in — plain resolvers ({!set_resolver}), the fork-based
    predictive lookahead of the paper ({!set_lookahead}), and scripted
    replay used internally by the lookahead itself. *)

module Make (App : Proto.App_intf.APP) : sig
  type t

  (** Aggregate counters since creation (see {!Counters}): the
      engine's one counter store, so every event is counted once.
      {!stats} returns a snapshot; while a sink is attached (see
      {!set_obs}) the obs export reads every field as the counter
      [engine_<field>]. *)
  type stats = Counters.t

  type reliable_config = Reliable.config
  (** Reliable delivery's retry tuning; the fields are documented on
      {!Reliable.config}. *)

  val default_reliable : reliable_config
  (** {!Reliable.default} *)

  (** Configuration of the predictive lookahead (paper §3.4): for each
      alternative the engine forks the simulation, forces that branch,
      runs the fork [horizon] virtual seconds (at most [max_events]
      events), and scores the resulting view with the application's
      objectives; safety violations subtract [violation_penalty].
      [scope] (default [None] = global knowledge) restricts the view the
      objectives see, keyed by the deciding node — supplying a
      neighbourhood restriction reproduces the partial-information
      regime the paper's runtime actually operates in. *)
  type lookahead = {
    horizon : float;
    max_events : int;
    violation_penalty : float;
    max_candidates : int;  (** alternatives beyond this many are not explored *)
    scope :
      (Proto.Node_id.t -> (App.state, App.msg) Proto.View.t -> (App.state, App.msg) Proto.View.t)
      option;
  }

  val default_lookahead : lookahead
  (** [{horizon = 2.0; max_events = 400; violation_penalty = 1000.;
      max_candidates = 8; scope = None}] *)

  val create :
    ?seed:int ->
    ?jitter:float ->
    ?check_properties:bool ->
    topology:Net.Topology.t ->
    unit ->
    t
  (** [jitter] is forwarded to {!Net.Netem.create}; [check_properties]
      (default true) evaluates the app's safety properties after every
      event. The per-node disks backing {!Proto.Durability} are
      {!Store.create} default disks. The engine keeps no text log: what
      a run did is read from {!stats}, {!violations},
      {!decision_sites}, {!message_log} and the {!set_obs} sink. *)

  (** {1 Choice policy} *)

  val set_resolver : t -> Core.Resolver.t -> unit
  (** Installs a plain resolver (e.g. {!Core.Resolver.random}). *)

  val set_lookahead :
    t -> ?fallback:Core.Resolver.t -> ?cache:Core.Bandit.t * int -> lookahead -> unit
  (** Installs predictive resolution; [fallback] (default
      {!Core.Resolver.random}) answers nested choices inside
      speculative branches and is also used when a branch cannot be
      explored. [cache = (bandit, min_pulls)] enables the hybrid fast
      path of paper §3.4: once a site's context has absorbed
      [min_pulls * arity] training updates, the bandit answers
      directly (microseconds) instead of forking; cache misses run the
      full lookahead and train the bandit with its normalised
      per-alternative scores. *)

  val resolver_name : t -> string

  val cache_stats : t -> (int * int) option
  (** [(hits, misses)] of the hybrid cache, when one is installed. *)

  val enable_reward_feedback : t -> window:float -> unit
  (** After [window] virtual seconds, each decision is scored by the
      change in total objective since it was taken and reported to the
      resolver's [feedback] — this trains bandit resolvers online. *)

  (** {1 Self-healing: failure detection, reliable delivery, degradation} *)

  val failure_detector : t -> Net.Failure_detector.t
  (** The shared phi-accrual detector, fed passively by every delivered
      message (observer = receiver, peer = sender). Handlers read it
      through {!Proto.Ctx.suspicion} / {!Proto.Ctx.suspected}. *)

  val set_fd_enabled : t -> bool -> unit
  (** Stops (or resumes) feeding the detector. On by default; the
      detector consumes no randomness and schedules no events, so
      toggling it never changes message behaviour — only what
      [Ctx.suspicion] reports. *)

  val enable_reliable : ?config:reliable_config -> t -> unit
  (** Opt-in at-least-once delivery with receiver-side dedup: every
      send is retransmitted with exponential backoff until an ack
      arrives or the retry budget runs out. Retransmissions and Netem
      duplicates share one sequence number, so the receiver's seen-set
      suppresses both — apps observe each logical send at most once
      even under the duplication fault.
      Disabled (the default), the layer costs nothing and consumes no
      randomness.
      @raise Invalid_argument on non-positive [base_timeout] or
      [ack_bytes], [backoff < 1], or negative [max_retries]/[jitter]. *)

  val degraded_nodes : t -> int
  (** Live nodes currently reporting [true] through [App.degraded];
      [0] when the app has no degraded mode. The chaos soak polls this
      to assert the system healed after the last fault cleared. *)

  (** {1 Overload robustness: bounded mailboxes and shedding} *)

  type overload_config = Overload.config
  (** Mailbox bound and service time; the fields are documented on
      {!Overload.config}. Every shed is counted in [stats.sheds_mailbox]. *)

  val default_overload : overload_config
  (** {!Overload.default}: everything off. *)

  val set_overload : ?config:overload_config -> t -> unit
  (** Installs (or reconfigures) the overload layer.
      @raise Invalid_argument on a negative [mailbox_capacity] or a
      negative or NaN [service_time]. *)

  val overload_limits : t -> overload_config option
  (** The installed configuration, when the layer is on. *)

  val mailbox_depth : t -> Proto.Node_id.t -> int
  (** Current queued (in-flight toward) count for one node; [0] when the
      overload layer is off. *)

  val mailbox_backlog : t -> int
  (** Max {!mailbox_depth} over all nodes right now — the soak's
      "has the system drained?" probe. [0] when the layer is off. *)

  val pressure : t -> Proto.Node_id.t -> float
  (** Queue pressure in [0, 1]: mailbox depth over capacity, clamped.
      [0.] while the layer is off or the mailbox unbounded. This is what
      handlers read through [Proto.Ctx.pressure]. *)

  val overload : t -> ?rate:float -> Proto.Node_id.t -> unit
  (** Starts a targeted injection burst: synthetic chaff messages
      arrive at the node at [rate] per virtual second (default 200.)
      until {!heal_overload}. Chaff flows through the same bounded
      queues as real traffic (at the lowest possible priority) but is
      never handed to the app. A second call replaces the running
      burst. Draws no randomness — chaff spacing and latency are
      deterministic. Installs the overload layer if missing.
      @raise Invalid_argument on a non-positive or non-finite rate. *)

  val heal_overload : t -> Proto.Node_id.t -> unit
  (** Stops the node's injection burst; idempotent. *)

  (** {1 Circuit breaker} *)

  val enable_breaker : t -> unit
  (** Turns on the per-directed-pair circuit breaker (see
      {!Net.Circuit_breaker}): retransmission timeouts record failures,
      acks record successes, and a failure-detector suspicion trips the
      pair open instantly. While a pair is open, reliable delivery
      skips the wire (counted in [stats.breaker_skips], the pending
      entry kept alive for the next timer), the retry budget halves,
      and apps can consult {!Proto.Ctx.send_allowed}. Off by default at
      zero cost. The breaker has {!Net.Circuit_breaker.create}'s default
      parameters. *)

  val circuit_breaker : t -> Net.Circuit_breaker.t
  (** The engine's breaker instance (meaningful once {!enable_breaker}
      ran — before that it exists but receives no evidence). *)

  (** {1 Deployment control} *)

  val spawn : t -> ?after:float -> Proto.Node_id.t -> unit
  (** Schedules the node's boot ([after] seconds from now, default 0).
      @raise Invalid_argument if the id exceeds the topology size or
      the node already exists. *)

  val kill : t -> Proto.Node_id.t -> unit
  (** Immediate clean crash: pending timers die, queued messages to the
      node will be dropped on arrival. The node's disk survives intact,
      so a durable app recovers on restart. Unknown ids are ignored. *)

  val kill_amnesia : t -> Proto.Node_id.t -> unit
  (** Crash that also loses the disk: the node's store is wiped before
      the kill, so the next boot starts from [App.init] alone — the
      failure mode durable protocols must {e not} be asked to survive,
      kept here to demonstrate what durability buys. *)

  val torn_write : t -> Proto.Node_id.t -> unit
  (** Crash mid-append: the raw WAL is truncated at a random point
      inside its last record, then the node is killed. Recovery detects
      the torn tail by checksum, drops it, and resumes from the last
      complete record ([stats.torn_recoveries] counts this). *)

  val restart : t -> ?after:float -> Proto.Node_id.t -> unit
  (** Reboots a dead node: [App.init] runs, then (for durable apps) the
      recovery contract of {!Proto.Durability} merges what the disk
      remembers. Idempotent — restarting a live node, or racing two
      restarts of the same node, is a no-op. *)

  (** {1 Per-node clocks}

      By default every node reads the engine's global virtual clock and
      the layer is entirely off: no table exists, seeded runs are
      byte-identical to an engine without it. The first fault call
      below creates a {!Dsim.Clock} for the node; from then on that
      node's handlers see local time through [Proto.Ctx.now], its
      [Set_timer] durations are measured on its own clock (a fast clock
      fires early in global time), its failure-detector heartbeats and
      circuit-breaker cooldowns are stamped with its local reading, and
      pending timers are re-anchored whenever a later fault moves the
      clock. The table lives in {!Clocks}. *)

  val set_clock_rate : t -> Proto.Node_id.t -> rate:float -> unit
  (** Drift: from now on the node's clock advances [rate] local seconds
      per global second (continuous at the switch point). [rate = 1.]
      keeps an explicit synchronized clock entry.
      @raise Invalid_argument unless [rate] is positive and finite. *)

  val clock_step : t -> Proto.Node_id.t -> offset:float -> unit
  (** Jump: the node's clock moves [offset] seconds (either sign) at
      this instant, keeping its rate. A forward step can jump over
      pending timer deadlines — those fire immediately and are counted
      in [stats.clock_clamped].
      @raise Invalid_argument if [offset] is not finite. *)

  val heal_clock : t -> Proto.Node_id.t -> unit
  (** Snap the node back onto the global clock (rate 1, zero offset)
      and drop its clock entry; pending timers re-anchor to their local
      deadlines read as global instants. Idempotent. *)

  val local_now : t -> Proto.Node_id.t -> Dsim.Vtime.t
  (** The node's local reading of the current instant; exactly {!now}
      for nodes without a clock entry. *)

  val clock_skew : t -> Proto.Node_id.t -> float
  (** [local - global] seconds for the node right now; [0.] without a
      clock entry. *)

  val clock_fingerprints : t -> (Proto.Node_id.t * int) list
  (** Fingerprints of every non-identity clock, sorted by node — the
      clock state a dedup-sound explorer world key must include. Empty
      whenever the layer is off or every clock healed. *)

  val inject : t -> ?after:float -> src:Proto.Node_id.t -> dst:Proto.Node_id.t -> App.msg -> unit
  (** Feeds an external message into the system through the emulator —
      used by workload generators. *)

  (** {1 Execution} *)

  val now : t -> Dsim.Vtime.t
  val step : t -> bool
  (** Processes one event; [false] if the queue was empty. *)

  val run_until : t -> Dsim.Vtime.t -> unit
  val run_for : t -> float -> unit
  val run_until_quiescent : ?max_events:int -> t -> unit

  (** {1 Observation} *)

  val alive : t -> Proto.Node_id.t -> bool
  val state_of : t -> Proto.Node_id.t -> App.state option
  val live_nodes : t -> (Proto.Node_id.t * App.state) list
  val global_view : t -> (App.state, App.msg) Proto.View.t
  (** A snapshot: its in-flight list is built now, so the view stays
      valid while the engine runs on (see {!Proto.View}). *)

  val objective_score : t -> float
  val violations : t -> (Dsim.Vtime.t * string) list
  val stats : t -> stats

  (** [delivered_of_kind t kind] is how many messages of one
      [App.msg_kind] have been delivered so far. *)
  val delivered_of_kind : t -> string -> int

  val enable_message_log : t -> unit
  (** Starts recording every delivery as (time, src, dst, kind) — feed
      the result to {!Metrics.Seqdiag.render} for a sequence diagram.
      Off by default; the log is unbounded while on. Forks never log. *)

  (** Recorded deliveries, oldest first; empty when logging is off. *)
  val message_log : t -> (Dsim.Vtime.t * Proto.Node_id.t * Proto.Node_id.t * string) list

  (** The node's simulated disk, for inspection — [None] until a
      durable app first boots there. *)
  val store : t -> Proto.Node_id.t -> Store.t option

  val set_obs : t -> Obs.Sink.t option -> unit
  (** Attach (or detach) an observability sink.  While attached, the
      engine exports every {!stats} field as the counter
      [engine_<field>] (read from the engine's counter store at export
      time), per-node/per-link delivery counters, drops by cause,
      queue-depth gauges and delivery-latency histograms into the
      sink's registry, and records one causal span per message hop
      and timer fire: spans carry a trace id minted at each root send
      (boot, {!inject}) and inherited by everything a handler does in
      response — including duplicated, reordered and deferred
      deliveries.  Speculative forks never observe: {!fork} detaches
      the sink in the copy. *)

  val netem : t -> Net.Netem.t
  val netmodel : t -> Net.Netmodel.t
  val decision_sites : t -> (Dsim.Vtime.t * Core.Choice.site * int) list
  (** Every resolved choice: when, where, which index — newest first. *)

  (** {1 Steering and speculation} *)

  val add_filter : t -> name:string -> (kind:string -> src:Proto.Node_id.t -> dst:Proto.Node_id.t -> bool) -> unit
  (** Installs an execution-steering event filter; a message is dropped
      when any filter returns [true] for it. *)

  val clear_filters : t -> unit

  val fork : t -> t
  (** Deep copy with an independent RNG position and the fallback
      resolver installed; the original is untouched. Its counters,
      violations and decision sites start as copies of the original's
      and move on their own. The copy has no obs sink and no message
      log, and builds its own handler contexts (over its own RNG and
      resolver) as its nodes run. The model checker and the runtime
      build consequence prediction on this. *)
end
