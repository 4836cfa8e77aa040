(** The CrystalBall-enabled runtime (paper Figure 1).

    Attached to a running engine, it periodically
    {ul
    {- collects checkpoints of every node (kept with an emulated
       collection delay, so consumers always see a slightly stale,
       realistically partial view);}
    {- runs consequence prediction from each node's neighbourhood
       snapshot and, when a violation is predicted and steering away is
       safe, installs time-limited event filters into the engine.}}

    Drive it with {!run_for}, which slices the engine's execution into
    runtime periods — the simulation analogue of the controller thread
    running beside the service.

    Each round steers only what changed. Every checkpoint carries a
    content number: it equals the previous checkpoint's when the new
    global view's node list is physically the previous one (the engine
    hands out the same list while no node changed) and its in-flight
    messages have equal endpoints and are physically the same, and is
    one higher otherwise. A round finds the latest usable checkpoint
    once. Each node keeps the world it last explored and is handed it
    again while its own state (physically), the content number and the
    clock fingerprints are unchanged; the explorer cache's root memo
    then answers without keying the world. Verdicts, reports and
    metrics are those of rebuilding every world every round. *)

module Make (App : Proto.App_intf.APP) : sig
  module E : module type of Engine.Sim.Make (App)
  module Ex : module type of Mc.Explorer.Make (App)
  module St : module type of Mc.Steering.Make (App)

  type t

  type report = {
    checkpoints_taken : int;
    steering_rounds : int;
    vetoes_installed : int;
    cannot_steer : int;
    worlds_explored : int;
        (** worlds actually visited by consequence prediction, summed
            over every explore of every steering round (not the
            per-round budget) *)
    outcomes_cached : int;
        (** handler outcomes served from the runtime's persistent
            transposition cache *)
    fingerprint_collisions : int;
        (** detected first-lane fingerprint collisions (worlds were
            kept apart; this only measures hash quality) *)
    checkpoint_bytes : int;
        (** control traffic charged to the network when a state codec
            was supplied; 0 otherwise *)
  }

  val attach :
    ?config:Config.t ->
    ?codec:App.state Wire.Codec.t ->
    ?obs:Obs.Registry.t ->
    neighbors:(App.state -> Proto.Node_id.t list) ->
    E.t ->
    t
  (** [obs] mirrors the {!report} counters into the registry as
      [crystal_*] gauges (refreshed at every checkpoint and steering
      round) and threads through to {!Mc.Steering} for per-phase
      profiling.

      [neighbors] extracts a node's protocol neighbourhood from its
      state (e.g. parent and children for a tree) — the set whose
      checkpoints the controller collects. It must be a function of
      the state alone: a node's world is reused while its state is
      unchanged, so a [neighbors] that read anything else could see a
      stale neighbourhood explored. When [codec] is given, every
      collection serializes each node's state and charges
      [size * |neighbors|] bytes of control traffic to that node's
      access links, so checkpointing contends with the application
      (paper §3.3.2). When omitted, the codec of the app's
      {!Proto.Durability} hook (if any) is used, so durability and
      checkpointing share one serialization path. *)

  val engine : t -> E.t

  val tick : t -> unit
  (** Performs any checkpoint collection and steering round now due.
      {!run_for} calls this automatically. *)

  val run_for : t -> float -> unit
  (** Advances the engine by the given virtual duration, interleaving
      runtime periods. *)

  val latest_view : t -> (App.state, App.msg) Proto.View.t option
  (** Most recent {e usable} (i.e. old enough to have been collected)
      global checkpoint view; [None] before the first collection
      matures. *)

  val neighborhood_view :
    t -> of_node:Proto.Node_id.t -> (App.state, App.msg) Proto.View.t option
  (** The stale partial view node [of_node]'s controller would hold:
      its own current state plus its neighbours' checkpointed states. *)

  val report : t -> report
  val verdict_log : t -> (Dsim.Vtime.t * St.verdict) list
end
