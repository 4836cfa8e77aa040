(* Differential tests for the rewritten explorer: the fingerprinted
   worklist implementation (Mc.Explorer) is pinned against the
   digest-based reference (Mc.Explorer_ref) on seeded lock, paxos and
   randtree worlds, across include_drops and generic_node modes.

   Two comparison strengths, chosen per scenario:

   - [check_same]: byte-exact — same worlds_explored/worlds_deduped,
     same violation multiset with first depths and path lengths, same
     liveness and veto-candidate sets. This holds wherever every path
     to a world has the same length, which is the case for purely
     message-consuming scenarios.

   - [check_verdict] + [check_steering]: where a world is reachable at
     different depths (generic-node injections consume nothing; some
     handler cycles regenerate earlier worlds), the old bounded DFS
     first-visits such worlds deeper and then prunes them at the depth
     bound, while the worklist search visits them at their minimal
     depth and keeps expanding — strictly better coverage, and
     violation first-depths that are never worse. For these scenarios
     we pin what consequence prediction actually feeds steering:
     identical violated-property sets, identical veto candidates,
     identical liveness, first depths no deeper than the reference's —
     and byte-identical steering verdicts against a reference
     steering decision procedure run over the old explorer.

   A second group checks that mutant messages never alias honest ones,
   that neither running explores on several domains at once nor
   sharing a transposition cache changes any verdict, and pins every
   result field of a fixed set of explores. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_strings = Alcotest.(check (list string))
let nid = Proto.Node_id.of_int

module Diff (App : Proto.App_intf.APP) = struct
  module Ex = Mc.Explorer.Make (App)
  module Ref = Mc.Explorer_ref.Make (App)
  module Sn = Mc.Steering.Make (App)

  let ref_world_of (w : Ex.world) : Ref.world =
    { Ref.states = w.states; pending = w.pending; timers = w.timers }

  (* Violations as sorted strings: property, first depth and path
     length pin the verdict; the concrete representative path is
     traversal-order-defined, so DFS and BFS may legally differ. *)
  let new_viols (r : Ex.result) =
    List.sort compare
      (List.map
         (fun (v : Ex.violation) ->
           Printf.sprintf "%s@%d/%d" v.property v.at_depth (List.length v.path))
         r.violations)

  let ref_viols (r : Ref.result) =
    List.sort compare
      (List.map
         (fun (v : Ref.violation) ->
           Printf.sprintf "%s@%d/%d" v.property v.at_depth (List.length v.path))
         r.violations)

  let check_same name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    let r_new = Ex.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let r_old = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w) in
    (* Under truncation the budget admits different worlds per
       traversal order, so differential scenarios must stay inside it. *)
    checkb (name ^ ": reference not truncated") false r_old.Ref.truncated;
    checkb (name ^ ": rewrite not truncated") false r_new.Ex.truncated;
    checki (name ^ ": worlds_explored") r_old.Ref.worlds_explored r_new.Ex.worlds_explored;
    checki (name ^ ": worlds_deduped") r_old.Ref.worlds_deduped r_new.Ex.worlds_deduped;
    check_strings (name ^ ": violations") (ref_viols r_old) (new_viols r_new);
    check_strings (name ^ ": liveness_unmet")
      (List.sort compare r_old.Ref.liveness_unmet)
      (List.sort compare r_new.Ex.liveness_unmet);
    check_strings (name ^ ": veto candidates")
      (List.map (Format.asprintf "%a" Ref.pp_step) (Ref.first_steps_to_violation r_old))
      (List.map (Format.asprintf "%a" Ex.pp_step) (Ex.first_steps_to_violation r_new))

  (* Semantic comparison for scenarios where visit depths legally
     differ (see the header comment): what steering consumes must
     still be identical, and the rewrite's first depths must never be
     deeper than the reference's. *)
  let check_verdict name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    let r_new = Ex.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let r_old = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w) in
    checkb (name ^ ": reference not truncated") false r_old.Ref.truncated;
    checkb (name ^ ": rewrite not truncated") false r_new.Ex.truncated;
    let pset_new =
      List.sort_uniq compare (List.map (fun (v : Ex.violation) -> v.property) r_new.Ex.violations)
    in
    let pset_old =
      List.sort_uniq compare
        (List.map (fun (v : Ref.violation) -> v.property) r_old.Ref.violations)
    in
    check_strings (name ^ ": violated properties") pset_old pset_new;
    check_strings (name ^ ": liveness_unmet")
      (List.sort compare r_old.Ref.liveness_unmet)
      (List.sort compare r_new.Ex.liveness_unmet);
    (* No veto-candidate comparison here: first steps belong to
       first-visit representative paths, which are traversal-defined
       in these scenarios; [check_steering] pins the verdict built
       from them instead. *)
    let min_depth viols prop =
      List.fold_left (fun acc (p, d) -> if p = prop then min acc d else acc) max_int viols
    in
    let new_pd = List.map (fun (v : Ex.violation) -> (v.property, v.at_depth)) r_new.Ex.violations in
    let old_pd =
      List.map (fun (v : Ref.violation) -> (v.property, v.at_depth)) r_old.Ref.violations
    in
    List.iter
      (fun prop ->
        checkb
          (Printf.sprintf "%s: first depth of %s not worse" name prop)
          true
          (min_depth new_pd prop <= min_depth old_pd prop))
      pset_new

  (* Reference steering: the decision procedure of Mc.Steering run
     verbatim over the reference explorer, rendered comparably. *)
  let veto_str (src, dst, kind) =
    Printf.sprintf "%s:%d->%d" kind (Proto.Node_id.to_int src) (Proto.Node_id.to_int dst)

  let ref_decide ?max_worlds ?include_drops ?generic_node ~depth (w : Ref.world) =
    let explore w = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let pset (r : Ref.result) =
      List.sort_uniq String.compare
        (List.map (fun (v : Ref.violation) -> v.property) r.violations)
    in
    let base = explore w in
    match base.Ref.violations with
    | [] -> [ "no-violation" ]
    | _ :: _ ->
        let doomed = pset base in
        let candidates =
          List.filter_map
            (function
              | Ref.Deliver_step { src; dst; kind } -> Some (src, dst, kind)
              | Ref.Drop_step _ | Ref.Timer_step _ | Ref.Generic_step _ -> None)
            (Ref.first_steps_to_violation base)
        in
        let without (src, dst, kind) =
          let dropped = ref false in
          {
            w with
            Ref.pending =
              List.filter
                (fun (s, d, m) ->
                  let matches =
                    (not !dropped)
                    && Proto.Node_id.equal s src && Proto.Node_id.equal d dst
                    && String.equal (App.msg_kind m) kind
                  in
                  if matches then dropped := true;
                  not matches)
                w.Ref.pending;
          }
        in
        let safe =
          List.filter
            (fun c ->
              let steered = explore (without c) in
              List.for_all (fun p -> List.mem p doomed) (pset steered))
            candidates
        in
        (match safe with
        | [] -> "cannot-steer" :: doomed
        | _ :: _ -> "steer" :: List.sort compare (List.map veto_str safe))

  let new_decide ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    match Sn.decide ?max_worlds ?include_drops ?generic_node ~depth w with
    | Sn.No_violation -> [ "no-violation" ]
    | Sn.Steer vetoes ->
        "steer"
        :: List.sort compare
             (List.map (fun (v : Sn.veto) -> veto_str (v.src, v.dst, v.kind)) vetoes)
    | Sn.Cannot_steer doomed -> "cannot-steer" :: doomed

  let check_steering name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    check_strings
      (name ^ ": steering verdict")
      (ref_decide ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w))
      (new_decide ?max_worlds ?include_drops ?generic_node ~depth w)

  let check_iterative ?(strict = true) name ?include_drops ?generic_node ~max_depth
      (w : Ex.world) =
    let d_new, r_new = Ex.iterative ?include_drops ?generic_node ~max_depth w in
    let d_old, r_old = Ref.iterative ?include_drops ?generic_node ~max_depth (ref_world_of w) in
    checki (name ^ ": stop depth") d_old d_new;
    if strict then begin
      checki (name ^ ": worlds_explored") r_old.Ref.worlds_explored r_new.Ex.worlds_explored;
      checki (name ^ ": worlds_deduped") r_old.Ref.worlds_deduped r_new.Ex.worlds_deduped;
      check_strings (name ^ ": violations") (ref_viols r_old) (new_viols r_new)
    end
    else
      check_strings (name ^ ": violated properties")
        (List.sort_uniq compare
           (List.map (fun (v : Ref.violation) -> v.property) r_old.Ref.violations))
        (List.sort_uniq compare
           (List.map (fun (v : Ex.violation) -> v.property) r_new.Ex.violations))

  (* Every violation with its depth and representative path. *)
  let full_sig (r : Ex.result) =
    List.map
      (fun (v : Ex.violation) ->
        Format.asprintf "%s@%d:%a" v.property v.at_depth
          (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Ex.pp_step)
          v.path)
      r.violations

  (* Every result field, [outcomes_cached] included: without a shared
     cache it is as deterministic as the rest. *)
  let check_result_equal name (a : Ex.result) (b : Ex.result) =
    check_strings (name ^ ": violations") (full_sig a) (full_sig b);
    checki (name ^ ": worlds_explored") a.Ex.worlds_explored b.Ex.worlds_explored;
    checki (name ^ ": worlds_deduped") a.Ex.worlds_deduped b.Ex.worlds_deduped;
    checki (name ^ ": collisions") a.Ex.fingerprint_collisions b.Ex.fingerprint_collisions;
    checkb (name ^ ": truncated") a.Ex.truncated b.Ex.truncated;
    check_strings (name ^ ": liveness_unmet") a.Ex.liveness_unmet b.Ex.liveness_unmet;
    checki (name ^ ": outcomes_cached") a.Ex.outcomes_cached b.Ex.outcomes_cached

  (* Runs [f] on [n] fresh domains at once; results in spawn order. *)
  let on_fresh_domains n f = List.map Domain.join (List.init n (fun _ -> Domain.spawn f))

  (* An explore keeps all its state in the call, and a property's
     verdict depends on the view alone, so the explore run on the
     calling domain and the same explore run on 4 fresh domains at once
     agree on every result field. *)
  let check_domains name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    let explore () = Ex.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let base = explore () in
    List.iteri
      (fun i r -> check_result_equal (Printf.sprintf "%s: fresh domain %d" name i) base r)
      (on_fresh_domains 4 explore)

  (* One pin-table line: every result field, violations as an MD5 of
     [full_sig] so representative paths are pinned too. *)
  let pin_row name (r : Ex.result) =
    Printf.sprintf "%s explored=%d deduped=%d collisions=%d truncated=%b unmet=[%s] cached=%d sig=%s"
      name r.Ex.worlds_explored r.Ex.worlds_deduped r.Ex.fingerprint_collisions r.Ex.truncated
      (String.concat "," r.Ex.liveness_unmet)
      r.Ex.outcomes_cached
      (Digest.to_hex (Digest.string (String.concat "\n" (full_sig r))))

  let check_cache_reuse name ?include_drops ?generic_node ~depth (w : Ex.world) =
    let cache = Ex.create_cache () in
    let r1 = Ex.explore ?include_drops ?generic_node ~cache ~depth w in
    let r2 = Ex.explore ?include_drops ?generic_node ~cache ~depth w in
    check_strings (name ^ ": warm cache, same violations") (full_sig r1) (full_sig r2);
    checki (name ^ ": warm cache, same worlds") r1.Ex.worlds_explored r2.Ex.worlds_explored;
    checkb (name ^ ": second run hits the cache") true (r2.Ex.outcomes_cached > 0)
end

(* ---------- lock: handcrafted worlds covering every branch kind ---------- *)

module Lock = Test_support.Lock_app
module DL = Diff (Lock)

let lock_world ?(timers = []) ?(clocks = []) states pending : DL.Ex.world =
  {
    states =
      List.fold_left
        (fun m (i, holding) -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding } m)
        Proto.Node_id.Map.empty states;
    pending = List.map (fun (a, b, m) -> (nid a, nid b, m)) pending;
    timers = List.map (fun (i, id) -> (nid i, id)) timers;
    clocks = List.map (fun (i, fp) -> (nid i, fp)) clocks;
  }

let lock_worlds =
  [
    ("safe", lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant) ]);
    ( "double-grant",
      lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] );
    ("flip-choice", lock_world [ (0, true); (1, false) ] [ (0, 1, Lock.Flip) ]);
    ( "timer-and-msgs",
      lock_world ~timers:[ (1, "grab"); (0, "grab") ]
        [ (0, true); (1, false) ]
        [ (1, 0, Lock.Release); (0, 1, Lock.Flip) ] );
  ]

let test_lock_differential () =
  List.iter
    (fun (name, w) ->
      (* Timer fires do not disarm the timer, so timer worlds contain
         self-loops — length-divergent paths to the same world — and
         only qualify for the semantic comparison beyond depth 1. *)
      let strict = name <> "timer-and-msgs" in
      if strict then begin
        DL.check_same (name ^ "/plain") ~depth:3 w;
        DL.check_same (name ^ "/drops") ~include_drops:true ~depth:3 w
      end
      else begin
        DL.check_same (name ^ "/depth1") ~include_drops:true ~depth:1 w;
        DL.check_verdict (name ^ "/plain") ~depth:3 w;
        DL.check_verdict (name ^ "/drops") ~include_drops:true ~depth:3 w
      end;
      DL.check_verdict (name ^ "/generic") ~generic_node:true ~depth:3 w;
      DL.check_verdict (name ^ "/drops+generic") ~include_drops:true ~generic_node:true ~depth:4
        w;
      DL.check_steering (name ^ "/steer") ~depth:3 w;
      DL.check_steering (name ^ "/steer+generic") ~generic_node:true ~depth:3 w)
    lock_worlds

let test_lock_iterative () =
  List.iter
    (fun (name, w) ->
      DL.check_iterative (name ^ "/iter") ~max_depth:3 w;
      DL.check_iterative (name ^ "/iter+drops") ~include_drops:true ~max_depth:3 w)
    lock_worlds

(* ---------- paxos: worlds frozen out of a live engine run ---------- *)

module P = Apps.Paxos

module Paxos_params = struct
  let population = 3
  let client_period = 0.  (* tests inject commands themselves *)
  let retry_timeout = 1.0
end

module PApp = P.Make (Paxos_params)
module PE = Engine.Sim.Make (PApp)
module DP = Diff (PApp)

(* With no jitter the seed draws nothing that reaches the world: every
   seed freezes the same one. *)
let paxos_view ?(jitter = 0.) ~seed () =
  let topology =
    Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = PE.create ~seed ~jitter ~topology () in
  PE.set_resolver eng P.self_resolver;
  for i = 0 to 2 do
    PE.spawn eng (nid i)
  done;
  PE.run_for eng 0.05;
  PE.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Submit { cmd = { P.origin = 1; seq = 0; born = 0. } });
  PE.inject eng ~src:(nid 2) ~dst:(nid 1) (P.Submit { cmd = { P.origin = 2; seq = 1; born = 0. } });
  PE.run_for eng 0.015;
  PE.global_view eng

let paxos_world ?jitter ~seed () = DP.Ex.world_of_view (paxos_view ?jitter ~seed ())

(* A world as text, in-flight messages and timers sorted: two worlds
   that differ only in the order of their in-flight lists are the same
   world to the explorer. *)
let render_paxos_world (w : DP.Ex.world) =
  let node = Format.asprintf "%a" Proto.Node_id.pp in
  String.concat "\n"
    (List.map
       (fun (id, st) -> Format.asprintf "%s %a" (node id) PApp.pp_state st)
       (Proto.Node_id.Map.bindings w.states)
    @ List.sort compare
        (List.map
           (fun (src, dst, m) -> Format.asprintf "%s->%s %a" (node src) (node dst) PApp.pp_msg m)
           w.pending
        @ List.map (fun (id, timer) -> node id ^ " timer " ^ timer) w.timers))

(* Two genuinely different worlds: the seed-3 world without jitter, and
   a seed-13 world under heavy jitter, frozen after one replica has
   already processed an accept. Small jitter only reorders the same
   in-flight messages at this instant. *)
let paxos_differential_worlds () =
  [ (3, paxos_world ~seed:3 ()); (13, paxos_world ~jitter:0.5 ~seed:13 ()) ]

let test_paxos_differential () =
  (match paxos_differential_worlds () with
  | [ (_, a); (_, b) ] ->
      checkb "the two paxos worlds differ" true (render_paxos_world a <> render_paxos_world b)
  | _ -> assert false);
  List.iter
    (fun (seed, w) ->
      let name = Printf.sprintf "paxos/seed%d" seed in
      DP.check_same (name ^ "/plain") ~depth:3 w;
      DP.check_verdict (name ^ "/drops") ~include_drops:true ~depth:3 w;
      DP.check_verdict (name ^ "/drops+generic") ~include_drops:true ~generic_node:true ~depth:2
        w;
      DP.check_steering (name ^ "/steer") ~depth:3 w;
      DP.check_steering (name ^ "/steer+drops") ~include_drops:true ~depth:3 w)
    (paxos_differential_worlds ())

let test_paxos_iterative () =
  let w = paxos_world ~seed:3 () in
  DP.check_iterative "paxos/iter" ~max_depth:3 w;
  DP.check_iterative ~strict:false "paxos/iter+drops" ~include_drops:true ~max_depth:2 w

(* ---------- randtree: joins frozen mid-flight ---------- *)

module RT = Apps.Randtree_choice.Default
module RE = Engine.Sim.Make (RT)
module DR = Diff (RT)

let randtree_world ~seed ~n ~horizon =
  let topology =
    Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = RE.create ~seed ~jitter:0. ~topology () in
  for i = 0 to n - 1 do
    RE.spawn eng ~after:(0.05 *. float_of_int i) (nid i)
  done;
  RE.run_for eng horizon;
  DR.Ex.world_of_view (RE.global_view eng)

let test_randtree_differential () =
  let w = randtree_world ~seed:5 ~n:6 ~horizon:0.4 in
  DR.check_same "randtree/plain" ~depth:2 w;
  DR.check_same "randtree/drops" ~include_drops:true ~depth:2 w;
  DR.check_verdict "randtree/generic" ~generic_node:true ~depth:2 w;
  DR.check_steering "randtree/steer" ~depth:2 w

(* ---------- byzantine mutants in the explorer ---------- *)

(* A decodes-clean mutant of a pending message is a different protocol
   value, and the dedup fingerprint must treat it as one: a world
   carrying honest + mutant copies of a message explores strictly more
   than a world carrying honest twins (whose two deliveries alias). *)
let mutant_of m =
  let codec = Option.get PApp.msg_codec in
  let rng = Dsim.Rng.create 13 in
  let rec go tries =
    if tries = 0 then Alcotest.fail "mutator never changed the message"
    else
      match Wire.Mutator.mutate ~rng ~node_ids:[ 0; 1; 2 ] codec (Wire.Codec.encode codec m) with
      | Some (m', _) when m' <> m -> m'
      | Some _ | None -> go (tries - 1)
  in
  go 100

(* The frozen paxos world with a mutant copy of its first pending
   message queued ahead of the honest one. *)
let mutant_world () =
  let w = paxos_world ~seed:3 () in
  match w.DP.Ex.pending with
  | [] -> Alcotest.fail "frozen world has no pending messages"
  | (src, dst, m) :: rest ->
      { w with DP.Ex.pending = (src, dst, mutant_of m) :: (src, dst, m) :: rest }

let test_mutant_worlds_never_alias () =
  let w = paxos_world ~seed:3 () in
  match w.DP.Ex.pending with
  | [] -> Alcotest.fail "frozen world has no pending messages"
  | (src, dst, m) :: rest ->
      let m' = mutant_of m in
      let twins = { w with DP.Ex.pending = (src, dst, m) :: (src, dst, m) :: rest } in
      let mixed = { w with DP.Ex.pending = (src, dst, m) :: (src, dst, m') :: rest } in
      let r_twins = DP.Ex.explore ~depth:1 twins in
      let r_mixed = DP.Ex.explore ~depth:1 mixed in
      (* Delivering either honest twin reaches the same world; the
         mutant's delivery (and the residual pending lists) must not. *)
      checki "mutant adds one distinct successor" (r_twins.DP.Ex.worlds_explored + 1)
        r_mixed.DP.Ex.worlds_explored;
      checki "honest twins alias, mutant does not" (r_mixed.DP.Ex.worlds_deduped + 1)
        r_twins.DP.Ex.worlds_deduped

let test_mutant_domains_determinism () =
  DP.check_domains "paxos-mutant/domains" ~include_drops:true ~depth:3 (mutant_world ())

(* ---------- domains and cache invariance ---------- *)

let test_domains_determinism () =
  List.iter
    (fun (name, w) ->
      DL.check_domains (name ^ "/domains") ~include_drops:true ~generic_node:true ~depth:4 w)
    lock_worlds;
  DP.check_domains "paxos/domains" ~include_drops:true ~depth:3 (paxos_world ~seed:3 ());
  DR.check_domains "randtree/domains" ~depth:2 (randtree_world ~seed:5 ~n:6 ~horizon:0.4)

let test_domains_iterative () =
  let w = paxos_world ~seed:3 () in
  let run () = DP.Ex.iterative ~include_drops:true ~max_depth:3 w in
  let d1, r1 = run () in
  List.iter
    (fun (d4, r4) ->
      checki "iterative stop depth invariant in domains" d1 d4;
      check_strings "iterative violations invariant in domains" (DP.full_sig r1) (DP.full_sig r4);
      checki "iterative worlds invariant in domains" r1.DP.Ex.worlds_explored
        r4.DP.Ex.worlds_explored)
    (DP.on_fresh_domains 4 run)

let test_cache_reuse () =
  DL.check_cache_reuse "lock/cache"
    ~include_drops:true ~depth:3
    (lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ]);
  DP.check_cache_reuse "paxos/cache" ~depth:3 (paxos_world ~seed:3 ())

(* ---------- explorer pin table ----------

   Every result field of a fixed set of explores, recorded from the
   explorer as it stood before the level loop was collapsed into one
   sequential pass. Any change to a counter, a verdict, a
   representative path or the cache statistic shows up here as a
   mismatching line. *)

(* The skewed-clock lock world of test_clock.ml. *)
let skewed_lock_world () =
  lock_world
    ~clocks:[ (0, 0x1234); (1, 0x5678) ]
    [ (0, false); (1, false); (2, false) ]
    [ (0, 1, Lock.Grant); (1, 2, Lock.Grant); (2, 0, Lock.Flip) ]

let pin_rows () =
  let iter_row row name (d, r) = row (Printf.sprintf "%s@stop%d" name d) r
  in
  let paxos3 = paxos_world ~seed:3 () in
  let rt = randtree_world ~seed:5 ~n:6 ~horizon:0.4 in
  let cache = DP.Ex.create_cache () in
  let warm1 = DP.Ex.explore ~include_drops:true ~cache ~depth:3 paxos3 in
  let warm2 = DP.Ex.explore ~include_drops:true ~cache ~depth:3 paxos3 in
  List.map
    (fun (name, w) ->
      DL.pin_row ("lock/" ^ name)
        (DL.Ex.explore ~include_drops:true ~generic_node:true ~depth:4 w))
    lock_worlds
  @ [
      DL.pin_row "lock/skewed-clocks" (DL.Ex.explore ~depth:4 (skewed_lock_world ()));
      iter_row DL.pin_row "lock/double-grant/iterative"
        (DL.Ex.iterative ~include_drops:true ~max_depth:3 (List.assoc "double-grant" lock_worlds));
      DP.pin_row "paxos/seed3/drops" (DP.Ex.explore ~include_drops:true ~depth:3 paxos3);
      (* Without jitter, seed 11 freezes the seed-3 world: this row
         explores that world, under its historical name. *)
      DP.pin_row "paxos/seed11/plain" (DP.Ex.explore ~depth:3 (paxos_world ~seed:11 ()));
      DP.pin_row "paxos/seed3/generic"
        (DP.Ex.explore ~include_drops:true ~generic_node:true ~depth:2 paxos3);
      DP.pin_row "paxos/seed3/truncated"
        (DP.Ex.explore ~include_drops:true ~max_worlds:60 ~depth:3 paxos3);
      iter_row DP.pin_row "paxos/seed3/iterative"
        (DP.Ex.iterative ~include_drops:true ~max_depth:3 paxos3);
      DP.pin_row "paxos/seed3/warm-round1" warm1;
      DP.pin_row "paxos/seed3/warm-round2" warm2;
      DP.pin_row "paxos-mutant/drops" (DP.Ex.explore ~include_drops:true ~depth:3 (mutant_world ()));
      DR.pin_row "randtree/plain" (DR.Ex.explore ~depth:2 rt);
      DR.pin_row "randtree/generic" (DR.Ex.explore ~generic_node:true ~depth:2 rt);
      DR.pin_row "randtree/mid-join"
        (DR.Ex.explore ~depth:3 (randtree_world ~seed:5 ~n:6 ~horizon:0.26));
    ]

let expected_pin_rows =
  [
    "lock/safe explored=8 deduped=9 collisions=0 truncated=false unmet=[] cached=8 sig=8584937f25d01447415caeff35201773";
    "lock/double-grant explored=16 deduped=33 collisions=0 truncated=false unmet=[] cached=26 sig=e93272f8ba02e30b9c2ed9ab43a75d8f";
    "lock/flip-choice explored=4 deduped=5 collisions=0 truncated=false unmet=[] cached=1 sig=88f3f04f86ab938d4466669971dbee37";
    "lock/timer-and-msgs explored=12 deduped=49 collisions=0 truncated=false unmet=[] cached=35 sig=be0b0cd6f5ca20d155813f8e15b7031c";
    "lock/skewed-clocks explored=12 deduped=9 collisions=0 truncated=false unmet=[] cached=13 sig=f9bb842b4b9ecf6693bb8a352622e6e2";
    "lock/double-grant/iterative@stop2 explored=9 deduped=4 collisions=0 truncated=false unmet=[] cached=4 sig=38ecf8a092e065dc395919a0c7b18a88";
    "paxos/seed3/drops explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=124 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed11/plain explored=77 deduped=12 collisions=0 truncated=false unmet=[] cached=64 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed3/generic explored=43 deduped=22 collisions=0 truncated=false unmet=[] cached=22 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed3/truncated explored=60 deduped=30 collisions=0 truncated=true unmet=[] cached=124 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed3/iterative@stop3 explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=124 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed3/warm-round1 explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=124 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos/seed3/warm-round2 explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "paxos-mutant/drops explored=274 deduped=287 collisions=0 truncated=false unmet=[] cached=245 sig=d41d8cd98f00b204e9800998ecf8427e";
    "randtree/plain explored=1 deduped=0 collisions=0 truncated=false unmet=[] cached=0 sig=d41d8cd98f00b204e9800998ecf8427e";
    "randtree/generic explored=77 deduped=5 collisions=0 truncated=false unmet=[] cached=44 sig=d41d8cd98f00b204e9800998ecf8427e";
    "randtree/mid-join explored=9 deduped=0 collisions=0 truncated=false unmet=[] cached=0 sig=d41d8cd98f00b204e9800998ecf8427e";
  ]

let test_pin_table () =
  let actual = pin_rows () in
  if actual <> expected_pin_rows then begin
    List.iter (Printf.printf "%S;\n") actual;
    check_strings "explorer pin table" expected_pin_rows actual
  end

(* ---------- shared-cache sequence pins ----------

   One cache carried through a sequence of explores, as the steering
   runtime carries it across rounds: the same world value again, an
   equal world rebuilt from the same view, the same root under
   changed parameters, [iterative] after [explore], other roots in
   between, and steering decisions that re-explore their vetoes.
   Recorded before the cache learned to remember explored roots, so
   every row (outcomes_cached included) is what a full explore over
   the shared handler tables reports. *)

let decide_row name verdict render (s : DL.Sn.stats) =
  Printf.sprintf "%s verdict=%s explored=%d deduped=%d cached=%d collisions=%d" name
    (render verdict) s.DL.Sn.worlds_explored s.DL.Sn.worlds_deduped s.DL.Sn.outcomes_cached
    s.DL.Sn.fingerprint_collisions

let render_lock_verdict = function
  | DL.Sn.No_violation -> "none"
  | DL.Sn.Steer vetoes ->
      "steer:" ^ String.concat "," (List.map (Format.asprintf "%a" DL.Sn.pp_veto) vetoes)
  | DL.Sn.Cannot_steer props -> "cannot:" ^ String.concat "," props

let sequence_rows () =
  let iter_row row name (d, r) = row (Printf.sprintf "%s@stop%d" name d) r in
  let view3 = paxos_view ~seed:3 () in
  let p3 = DP.Ex.world_of_view view3 in
  let mutant = mutant_world () in
  let c = DP.Ex.create_cache () in
  let ex ?(include_drops = true) ?max_worlds ?(depth = 3) w =
    DP.Ex.explore ~include_drops ?max_worlds ~cache:c ~depth w
  in
  let paxos =
    (* Sequenced with [let]s: list elements evaluate in no fixed order. *)
    let first = ex p3 in
    let same_value = ex p3 in
    let rebuilt = ex (DP.Ex.world_of_view view3) in
    let depth2 = ex ~depth:2 p3 in
    let budget = ex ~max_worlds:60 p3 in
    let no_drops = ex ~include_drops:false p3 in
    let iterative = DP.Ex.iterative ~include_drops:true ~cache:c ~max_depth:3 p3 in
    let other = ex mutant in
    let back = ex p3 in
    let depth2_again = ex ~depth:2 p3 in
    [
      DP.pin_row "seq/paxos3/first" first;
      DP.pin_row "seq/paxos3/same-value" same_value;
      DP.pin_row "seq/paxos3/equal-rebuilt" rebuilt;
      DP.pin_row "seq/paxos3/depth2" depth2;
      DP.pin_row "seq/paxos3/max-worlds60" budget;
      DP.pin_row "seq/paxos3/no-drops" no_drops;
      iter_row DP.pin_row "seq/paxos3/iterative" iterative;
      DP.pin_row "seq/paxos-mutant/between" other;
      DP.pin_row "seq/paxos3/back" back;
      DP.pin_row "seq/paxos3/depth2-again" depth2_again;
    ]
  in
  let lc = DL.Ex.create_cache () in
  let grant2 = List.assoc "double-grant" lock_worlds in
  let timers = List.assoc "timer-and-msgs" lock_worlds in
  let decide w = DL.Sn.decide_with_stats ~include_drops:true ~cache:lc ~depth:3 w in
  let lock =
    let d1, s1 = decide grant2 in
    let d2, s2 = decide grant2 in
    let between = DL.Ex.explore ~include_drops:true ~cache:lc ~depth:3 timers in
    let d3, s3 =
      decide (lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ])
    in
    let ex_grant2 = DL.Ex.explore ~include_drops:true ~cache:lc ~depth:3 grant2 in
    [
      decide_row "seq/lock/decide-first" d1 render_lock_verdict s1;
      decide_row "seq/lock/decide-again" d2 render_lock_verdict s2;
      DL.pin_row "seq/lock/timers-between" between;
      decide_row "seq/lock/decide-rebuilt" d3 render_lock_verdict s3;
      DL.pin_row "seq/lock/explore-after-decide" ex_grant2;
    ]
  in
  paxos @ lock

let expected_sequence_rows =
  [
    "seq/paxos3/first explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=124 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/same-value explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/equal-rebuilt explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/depth2 explored=43 deduped=22 collisions=0 truncated=false unmet=[] cached=32 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/max-worlds60 explored=60 deduped=30 collisions=0 truncated=true unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/no-drops explored=77 deduped=12 collisions=0 truncated=false unmet=[] cached=88 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/iterative@stop3 explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos-mutant/between explored=274 deduped=287 collisions=0 truncated=false unmet=[] cached=269 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/back explored=157 deduped=140 collisions=0 truncated=false unmet=[] cached=148 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/paxos3/depth2-again explored=43 deduped=22 collisions=0 truncated=false unmet=[] cached=32 sig=d41d8cd98f00b204e9800998ecf8427e";
    "seq/lock/decide-first verdict=steer:veto(grant n0->n1) explored=12 deduped=4 cached=5 collisions=0";
    "seq/lock/decide-again verdict=steer:veto(grant n0->n1) explored=12 deduped=4 cached=7 collisions=0";
    "seq/lock/timers-between explored=12 deduped=39 collisions=0 truncated=false unmet=[] cached=27 sig=be0b0cd6f5ca20d155813f8e15b7031c";
    "seq/lock/decide-rebuilt verdict=steer:veto(grant n0->n1) explored=12 deduped=4 cached=7 collisions=0";
    "seq/lock/explore-after-decide explored=9 deduped=4 collisions=0 truncated=false unmet=[] cached=6 sig=38ecf8a092e065dc395919a0c7b18a88";
  ]

let test_sequence_pins () =
  let actual = sequence_rows () in
  if actual <> expected_sequence_rows then begin
    List.iter (Printf.printf "%S;\n") actual;
    check_strings "shared-cache sequence pins" expected_sequence_rows actual
  end

let () =
  Alcotest.run "mc-diff"
    [
      ( "differential",
        [
          Alcotest.test_case "lock worlds" `Quick test_lock_differential;
          Alcotest.test_case "lock iterative" `Quick test_lock_iterative;
          Alcotest.test_case "paxos worlds" `Quick test_paxos_differential;
          Alcotest.test_case "paxos iterative" `Quick test_paxos_iterative;
          Alcotest.test_case "randtree worlds" `Quick test_randtree_differential;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "mutant worlds never alias" `Quick test_mutant_worlds_never_alias;
          Alcotest.test_case "mutant domains determinism" `Quick test_mutant_domains_determinism;
          Alcotest.test_case "domains determinism" `Quick test_domains_determinism;
          Alcotest.test_case "domains iterative" `Quick test_domains_iterative;
          Alcotest.test_case "cache reuse" `Quick test_cache_reuse;
          Alcotest.test_case "explorer pin table" `Quick test_pin_table;
          Alcotest.test_case "shared-cache sequence pins" `Quick test_sequence_pins;
        ] );
    ]
