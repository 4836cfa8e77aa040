module Make (App : Proto.App_intf.APP) = struct
  module Ex = Explorer.Make (App)

  type veto = { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }

  type verdict = No_violation | Steer of veto list | Cannot_steer of string list

  let pp_veto ppf v =
    Format.fprintf ppf "veto(%s %a->%a)" v.kind Proto.Node_id.pp v.src Proto.Node_id.pp v.dst

  let property_set result =
    List.sort_uniq String.compare
      (List.map (fun (v : Ex.violation) -> v.property) result.Ex.violations)

  let without_delivery (w : Ex.world) veto =
    let dropped = ref false in
    let pending =
      List.filter
        (fun (src, dst, msg) ->
          let matches =
            (not !dropped)
            && Proto.Node_id.equal src veto.src
            && Proto.Node_id.equal dst veto.dst
            && String.equal (App.msg_kind msg) veto.kind
          in
          if matches then dropped := true;
          not matches)
        w.Ex.pending
    in
    { w with Ex.pending }

  type stats = {
    worlds_explored : int;
    worlds_deduped : int;
    outcomes_cached : int;
    fingerprint_collisions : int;
  }

  let decide_with_stats ?max_worlds ?include_drops ?generic_node ?seed ?cache ?obs ~depth world =
    (* One transposition cache spans the base explore and every
       candidate-veto re-explore: steered worlds differ from the base
       by a single removed delivery, so almost every handler outcome
       repeats. *)
    let cache = match cache with Some c -> c | None -> Ex.create_cache () in
    let t0 = if obs = None then 0. else Unix.gettimeofday () in
    let phase = ref "steer-base" in
    let stats =
      ref
        { worlds_explored = 0; worlds_deduped = 0; outcomes_cached = 0; fingerprint_collisions = 0 }
    in
    let explore w =
      let r =
        Ex.explore ?max_worlds ?include_drops ?generic_node ?seed ~cache ?obs ~obs_phase:!phase
          ~depth w
      in
      stats :=
        {
          worlds_explored = !stats.worlds_explored + r.Ex.worlds_explored;
          worlds_deduped = !stats.worlds_deduped + r.Ex.worlds_deduped;
          outcomes_cached = !stats.outcomes_cached + r.Ex.outcomes_cached;
          fingerprint_collisions = !stats.fingerprint_collisions + r.Ex.fingerprint_collisions;
        };
      r
    in
    let base = explore world in
    phase := "steer-veto";
    let verdict =
      match base.Ex.violations with
      | [] -> No_violation
      | _ :: _ ->
          let doomed = property_set base in
          let candidates =
            List.filter_map
              (fun step ->
                match step with
                | Ex.Deliver_step { src; dst; kind } -> Some { src; dst; kind }
                | Ex.Drop_step _ | Ex.Timer_step _ | Ex.Generic_step _ -> None)
              (Ex.first_steps_to_violation base)
          in
          let safe =
            List.filter
              (fun veto ->
                let steered = explore (without_delivery world veto) in
                (* Safe iff steering surfaces no property beyond those the
                   un-steered future already violates. *)
                List.for_all (fun p -> List.mem p doomed) (property_set steered))
              candidates
          in
          (match safe with [] -> Cannot_steer doomed | _ :: _ -> Steer safe)
    in
    (match obs with
    | None -> ()
    | Some reg ->
        Obs.Registry.incr (Obs.Registry.counter reg ~name:"mc_steer_rounds" ~labels:[]);
        let name =
          match verdict with
          | No_violation -> "no_violation"
          | Steer _ -> "steer"
          | Cannot_steer _ -> "cannot_steer"
        in
        Obs.Registry.incr
          (Obs.Registry.counter reg ~name:"mc_steer_verdicts" ~labels:[ ("verdict", name) ]);
        Obs.Registry.observe
          (Obs.Registry.histogram ~volatile:true reg ~name:"mc_steer_wall_ms" ~labels:[]
             ~lo:0. ~hi:10_000. ~buckets:20)
          ((Unix.gettimeofday () -. t0) *. 1000.));
    (verdict, !stats)

  let decide ?max_worlds ?include_drops ?generic_node ?seed ?cache ?obs ~depth world =
    fst (decide_with_stats ?max_worlds ?include_drops ?generic_node ?seed ?cache ?obs ~depth world)
end
