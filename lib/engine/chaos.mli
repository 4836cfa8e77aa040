(** Randomized chaos soaks: seeded adversarial fault schedules plus the
    harness that runs an app through one and judges the outcome.

    A {!profile} says how hostile the deployment is (how many crashes,
    partitions and degradations; how much duplication, corruption and
    reordering on every channel); {!generate} turns a seed and a
    profile into a concrete reproducible {!Faultplan.t} — same seed,
    same plan, bit for bit. {!Soak} runs an app under the plan and
    checks the two things the paper's runtime promises: safety holds
    {e during} the storm, and the app's objective recovers within a
    grace period {e after} it. *)

type profile = {
  crashes : int;  (** crash/restart pairs, distinct victims *)
  crash_mode : Faultplan.crash_mode;
      (** what each crash does to the victim's disk — {!Faultplan.Clean}
          (default) preserves it, [Amnesia] wipes it, [Torn] truncates
          the WAL mid-record; irrelevant for non-durable apps *)
  partitions : int;  (** partition/heal pairs (random split) *)
  degrades : int;  (** degrade/restore pairs (random endpoint) *)
  duplicate_rate : float;
  duplicate_copies : int;
  corrupt_rate : float;
  corrupt_flip : float;
  reorder_rate : float;
  reorder_window : float;
  flaps : int;
      (** cycles of one flapping partition (cut / heal on a cadence);
          0 (default) disables it and draws nothing from the plan RNG *)
  flap_period : float;
      (** half-period of each flap cycle in seconds. The default (30s)
          is sized to the failure detector: phi-accrual suspicion needs
          ~18s of silence to trigger, so shorter periods flap beneath
          the detector's reaction time *)
  gray_links : int;
      (** asymmetric gray failures — directed links that silently lose
          [gray_loss] of their traffic for a window while the reverse
          direction stays clean; 0 (default) disables *)
  gray_loss : float;  (** loss rate of each gray direction *)
  overload_nodes : int;
      (** targeted injection bursts — distinct victim nodes flooded
          with synthetic chaff through the engine's bounded queues;
          0 (default) disables and draws nothing from the plan RNG *)
  overload_rate : float;  (** chaff messages per virtual second per burst *)
  overload_period : float;
      (** duration of each burst in seconds (clipped to end inside the
          storm, like every other fault window) *)
  drift_nodes : int;
      (** distinct victim nodes whose local clocks run fast or slow
          (rate drawn in [1 - drift_rate, 1 + drift_rate]) for a window
          and then heal; 0 (default) disables and draws nothing from
          the plan RNG *)
  drift_rate : float;
      (** maximum fractional drift; must lie in [0, 1) so a slow clock
          still moves forward. Default 0.2 — absurd for real quartz but
          right for exercising timeout-sensitive logic *)
  clock_steps : int;
      (** NTP-style step excursions — victim nodes (distinct from the
          drift victims) whose clocks jump by a signed offset drawn in
          [±clock_step_max] and later heal; 0 (default) disables and
          draws nothing from the plan RNG *)
  clock_step_max : float;  (** maximum |offset| of each step, seconds *)
  byz_links : int;
      (** byzantine directed links: when [byz_rate > 0], this many
          random directed links each get a windowed {!Faultplan.Set_mutate}
          / [Heal_mutate] pair; 0 (the default) instead mutates the
          global channel for the whole storm *)
  byz_rate : float;
      (** probability each delivered message on a byzantine channel is
          replaced by a typed, decodes-clean mutation (see
          {!Wire.Mutator}); 0 (default) disables byzantine mutation
          entirely, emits no plan events and draws nothing from the
          plan RNG — pre-byzantine plans stay byte-identical *)
  storm : float;  (** seconds of active chaos *)
  grace : float;  (** seconds allowed for recovery after the storm *)
  protect : int list;
      (** node ids never crashed (e.g. a store's primary whose
          in-memory log is the system's only copy) *)
}

val default_profile : profile
(** Moderate hostility: 2 crashes, 1 partition, 1 degradation, 8%
    duplication, 5% corruption, 15% reordering over a 6s storm with an
    8s grace. *)

val pp_profile : Format.formatter -> profile -> unit

val generate : seed:int -> nodes:int -> profile -> Faultplan.t
(** A reproducible random plan over node ids [0 .. nodes-1]: channel
    faults switch on at t=0 and off at [storm]; every kill is
    restarted, every partition healed and every degradation restored
    by 95% of the storm, so the plan ends with the system nominally
    whole. Partition windows that would re-cut a pair still open (now
    rejected by {!Faultplan.plan}) are skipped without consuming extra
    randomness, so every other fault keeps its schedule. A flap always
    gets at least one cycle even when [2 * flap_period] exceeds the
    storm — the flap simply outlives it, still ending healed.
    @raise Invalid_argument on [nodes <= 0], a non-positive storm or
    flap period, a negative flap/gray/overload/drift/step count, a
    gray loss outside [0,1], a negative or NaN channel-fault rate
    (duplicate/corrupt/flip/reorder) or overload rate, a non-positive
    overload period, an overload burst asked for at zero rate, a drift
    rate outside [0,1), a non-finite or negative clock step max, a
    negative byzantine link count, or a byzantine mutate rate outside
    [0,1] — each with an error naming the offending knob. *)

type outcome = {
  plan : Faultplan.t;
  violations : (Dsim.Vtime.t * string) list;  (** safety violations, storm or grace *)
  recovered : bool;  (** the caller's recovery check passed *)
  self_healed : bool;
      (** no live node still reported [App.degraded] at the end of
          grace (vacuously true for apps without a degraded mode) *)
  heal_time : float option;
      (** grace seconds until the last degraded node recovered and
          stayed so, on a 0.25s grid; [None] if it never did *)
  shed_bounded : bool;
      (** the mailbox high-water mark never exceeded the configured
          capacity (vacuously true while mailboxes are unbounded) *)
  overload_recovered : bool;
      (** by the end of grace the backlog was back within twice the
          one measured after warmup ("drained" means back to baseline,
          not empty) *)
  stats : Counters.t;
  elapsed : float;  (** total virtual seconds simulated *)
}

module Soak (App : Proto.App_intf.APP) : sig
  module E : module type of Sim.Make (App)

  val run :
    ?reliable:bool ->
    ?obs:Obs.Sink.t ->
    setup:(E.t -> unit) ->
    recovered:(E.t -> unit -> bool) ->
    seed:int ->
    topology:Net.Topology.t ->
    profile ->
    outcome
  (** [run ~setup ~recovered ~seed ~topology profile]: the soak is the
      one place that sets up a run's engine layers. A profile with
      [overload_nodes > 0] gets capacity-64 mailboxes with priority
      shedding, a 0.5 ms service time and the circuit
      breaker; [reliable] turns on reliable delivery (default: when
      [flaps > 0], so retransmissions carry traffic across the cuts);
      [obs] attaches a sink. [setup] then picks the resolver, spawns
      nodes and seeds workload. After a 2s warmup the generated plan
      executes, the rest of the storm runs out, then [recovered eng]
      snapshots whatever baseline it needs and the returned thunk is
      asked for the verdict after [grace] more seconds. The engine
      seed equals the plan seed, so the whole soak is
      bit-reproducible. *)
end
