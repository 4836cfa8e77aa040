(** Execution steering (paper §2): decide, from a snapshot, whether an
    imminent action leads to a safety violation and whether vetoing it
    is itself safe.

    The verdict is computed purely on explorer worlds; installing the
    resulting event filters into a live engine is the runtime's job.
    An action is only vetoed if re-exploring the world {e without} it
    surfaces no violation of a property that was not already doomed —
    the paper's "if consequence prediction does not find any new
    inconsistencies due to execution steering". *)

module Make (App : Proto.App_intf.APP) : sig
  module Ex : module type of Explorer.Make (App)

  (** A filter to install: drop deliveries matching this triple. *)
  type veto = { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }

  type verdict =
    | No_violation
    | Steer of veto list  (** safe filters covering offending first steps *)
    | Cannot_steer of string list
        (** violations predicted, but every candidate filter introduced
            new ones; the property names are reported *)

  (** Exploration work behind one verdict, summed over the base
      explore and every candidate-veto re-explore — the number the
      runtime should account steering budgets against. *)
  type stats = {
    worlds_explored : int;
    worlds_deduped : int;
    outcomes_cached : int;
    fingerprint_collisions : int;
  }

  val decide :
    ?max_worlds:int ->
    ?include_drops:bool ->
    ?generic_node:bool ->
    ?seed:int ->
    ?cache:Ex.cache ->
    ?obs:Obs.Registry.t ->
    depth:int ->
    Ex.world ->
    verdict

  val decide_with_stats :
    ?max_worlds:int ->
    ?include_drops:bool ->
    ?generic_node:bool ->
    ?seed:int ->
    ?cache:Ex.cache ->
    ?obs:Obs.Registry.t ->
    depth:int ->
    Ex.world ->
    verdict * stats
  (** Like {!decide}, also reporting the exploration work done. A
      supplied [cache] (or one created internally) is shared across
      the base and per-veto explores; pass a persistent one to reuse
      outcomes across steering rounds. [obs] profiles each underlying explore (phases
      ["steer-base"] / ["steer-veto"]) plus per-round verdict counters
      and volatile round wall time. *)

  val pp_veto : Format.formatter -> veto -> unit
end
