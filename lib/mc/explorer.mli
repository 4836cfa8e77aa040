(** Consequence prediction (paper §2, CrystalBall): depth-bounded
    exploration of the executions reachable from a snapshot.

    A {!Make.world} is a set of node states plus in-flight messages and
    armed timers. From a world, every enabled action branches: deliver
    any pending message, drop it (modelling loss/TCP reset, when
    enabled), fire any armed timer, or inject a message from the
    under-specified {e generic node}. Choice points encountered inside
    handlers branch too — every alternative is explored, which is
    exactly how the original nondeterministic algorithm (not one
    resolved policy) gets checked.

    Exploration is untimed: it follows causally related chains of
    events, as consequence prediction does, rather than timestamps.
    Worlds are deduplicated by a two-lane structural fingerprint
    (first-lane collisions are detected via the second lane and the
    worlds kept apart); the search runs level-synchronously over an
    explicit worklist, one in-order pass per level, and memoizes
    handler outcomes, and whole explores, in a transposition cache.
    See DESIGN.md §"The exploration engine". *)

module Make (App : Proto.App_intf.APP) : sig
  type world = {
    states : App.state Proto.Node_id.Map.t;
    pending : (Proto.Node_id.t * Proto.Node_id.t * App.msg) list;
    timers : (Proto.Node_id.t * string) list;
    clocks : (Proto.Node_id.t * int) list;
        (** clock fingerprints of nodes whose local clocks are skewed
            (empty when all clocks track global time). Exploration is
            untimed, so the clocks never change along a path — but they
            enter the dedup fingerprint, keeping snapshots that differ
            only in clock state in separate equivalence classes. *)
  }

  (** One step along an explored path, in application terms — concrete
      enough for the steering module to build an event filter from. *)
  type step =
    | Deliver_step of { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }
    | Drop_step of { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }
    | Timer_step of { node : Proto.Node_id.t; id : string }
    | Generic_step of { dst : Proto.Node_id.t; kind : string }

  type violation = { property : string; path : step list; at_depth : int }

  type result = {
    violations : violation list;
    worlds_explored : int;
    worlds_deduped : int;
    liveness_unmet : string list;
        (** liveness properties satisfied by no explored world *)
    truncated : bool;  (** hit [max_worlds] before exhausting depth *)
    outcomes_cached : int;
        (** handler outcomes served from the transposition cache; a
            shared [cache] that is already warm raises it, and changes
            no other field *)
    fingerprint_collisions : int;
        (** distinct worlds whose first-lane fingerprints collided;
            detected via the second lane and kept apart *)
  }

  (** A transposition cache memoizing handler outcomes, reusable across
      {!explore} calls (steering re-explores near-identical
      neighbourhoods every round). Entries are exact — keyed on real
      state/message equality — so sharing one never changes verdicts,
      only [outcomes_cached]. Share one cache with at most one explore
      at a time.

      The cache also remembers whole explores (its {e root memo}): the
      root world, every parameter ([max_worlds], [include_drops],
      [generic_node], [seed], [depth], and whether the call is
      {!iterative}), the stopping level, the result, and how many
      handler lookups the search made. A later call with the same
      parameters is answered from the memo when handed the same world
      value again (one of the last 16 served), or a world with the same
      key whose states are [App.equal_state], whose pending messages
      are [=] with equal endpoints, and whose timers and clock
      fingerprints are equal. A hit returns the stored result with
      [outcomes_cached] equal to the stored lookup count, and counts
      that many hits and lookups: a real re-explore reports exactly
      that, because every lookup of an explore already made hits the
      tables. The memo holds at most 64 roots plus the 16 recent world
      values. A handler table reaching its size cap is reset and
      empties the memo, and an explore during which a lookup was lost
      (a reset, or a key not equal to itself) is not remembered. *)
  type cache

  val create_cache : unit -> cache

  val world_of_view :
    ?timers:(Proto.Node_id.t * string) list ->
    ?clocks:(Proto.Node_id.t * int) list ->
    (App.state, App.msg) Proto.View.t ->
    world

  val explore :
    ?max_worlds:int ->
    ?include_drops:bool ->
    ?generic_node:bool ->
    ?seed:int ->
    ?cache:cache ->
    ?obs:Obs.Registry.t ->
    ?obs_phase:string ->
    depth:int ->
    world ->
    result
  (** [max_worlds] (default 20_000) bounds total work. [include_drops]
      (default false) also branches on losing each pending message.
      [generic_node] (default false) injects [App.generic_msgs].
      [seed] feeds the context RNG handlers see (default 7) — handler
      randomness is explored as-is, not branched. [cache] carries
      memoized handler outcomes and explored roots across calls;
      without one, every call is a fresh search. [obs] records
      per-call profiling (worlds explored/deduped, cache hit rate, wall
      time and worlds/s — the latter two volatile) labelled with
      [obs_phase] (default ["explore"]). *)

  val iterative :
    ?max_worlds:int ->
    ?include_drops:bool ->
    ?generic_node:bool ->
    ?seed:int ->
    ?cache:cache ->
    ?obs:Obs.Registry.t ->
    ?obs_phase:string ->
    max_depth:int ->
    world ->
    int * result
  (** Iterative deepening: stops at the first depth that surfaces a
      violation (so the reported paths are minimal causes — the best
      input for steering), or at [max_depth]. Returns the stopping
      depth with its result. Implemented as a single level-synchronous
      pass that halts at the end of the first violating level, rather
      than one restart per depth. *)

  val first_steps_to_violation : result -> step list
  (** Deduplicated first steps of all violating paths — the actions
      execution steering would veto. *)

  val pp_step : Format.formatter -> step -> unit
end
