(* Tests for the two RandTree variants: protocol behaviour, tree
   invariants under churn, and the behavioural contract between the
   baseline and the choice-exposed rewrite. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module C = Apps.Randtree_common
module Base = Apps.Randtree_baseline.Default
module Choice = Apps.Randtree_choice.Default
module BE = Engine.Sim.Make (Base)
module CE = Engine.Sim.Make (Choice)

(* ---------- message vocabulary ---------- *)

let test_msg_kinds () =
  Alcotest.check Alcotest.string "join" "join" (C.msg_kind (C.Join { origin = nid 1 }));
  Alcotest.check Alcotest.string "reply" "join_reply" (C.msg_kind (C.Join_reply { depth = 2 }));
  Alcotest.check Alcotest.string "ping" "ping" (C.msg_kind C.Ping);
  Alcotest.check Alcotest.string "ack" "ping_ack" (C.msg_kind (C.Ping_ack { depth = 1 }));
  checkb "bytes positive" true (List.for_all (fun m -> C.msg_bytes m > 0)
    [ C.Join { origin = nid 1 }; C.Join_reply { depth = 1 }; C.Ping; C.Ping_ack { depth = 1 } ])

(* ---------- Measure ---------- *)

type toy = { parent : int option; joined : bool }

let toy_view nodes : (toy, unit) Proto.View.t =
  Proto.View.v ~time:Dsim.Vtime.zero
    ~nodes:(List.map (fun (i, parent, joined) -> (nid i, { parent; joined })) nodes)
    ~inflight:[]

let parent st = Option.map nid st.parent
let joined st = st.joined

let test_measure_depths () =
  let v = toy_view [ (0, None, true); (1, Some 0, true); (2, Some 1, true) ] in
  checkb "root depth 1" true (C.Measure.depth_of ~parent v (nid 0) = Some 1);
  checkb "leaf depth 3" true (C.Measure.depth_of ~parent v (nid 2) = Some 3);
  checki "max depth" 3 (C.Measure.max_depth ~parent v);
  Alcotest.check (Alcotest.float 1e-9) "mean depth" 2. (C.Measure.mean_depth ~parent v);
  checkb "no cycle" false (C.Measure.has_cycle ~parent v)

let test_measure_cycle () =
  let v = toy_view [ (0, Some 1, true); (1, Some 0, true) ] in
  checkb "cycle detected" true (C.Measure.has_cycle ~parent v);
  checkb "cyclic depth undefined" true (C.Measure.depth_of ~parent v (nid 0) = None)

let test_measure_left_view_is_not_cycle () =
  (* A parent outside the view (crashed) must not count as a cycle. *)
  let v = toy_view [ (1, Some 9, true) ] in
  checkb "not a cycle" false (C.Measure.has_cycle ~parent v);
  checkb "depth undefined" true (C.Measure.depth_of ~parent v (nid 1) = None)

let test_measure_joined_count () =
  let v = toy_view [ (0, None, true); (1, None, false) ] in
  checki "joined" 1 (C.Measure.joined_count ~joined v)

(* The one-pass measures against the per-node reference: a fold of
   [chain_of] over every node. Random parent graphs cover cycles,
   self-loops, parents outside the view, sparse ids (which collide in
   the id table), views in any order, duplicate ids and empty views. *)
let reference_measures v =
  let chains = List.map (fun (id, _) -> C.Measure.chain_of ~parent v id) v.Proto.View.nodes in
  let depths = List.filter_map (function C.Measure.Depth d -> Some d | _ -> None) chains in
  ( List.mem C.Measure.Cycle chains,
    List.fold_left max 0 depths,
    match depths with
    | [] -> 0.
    | _ -> float_of_int (List.fold_left ( + ) 0 depths) /. float_of_int (List.length depths) )

let parent_graph =
  let open QCheck.Gen in
  let graph span =
    list_size (int_bound 40)
      (pair (int_bound span)
         (frequency
            [
              (1, return `Root);
              (1, return `Self);
              (6, map (fun p -> `To p) (int_bound (span + 4)));
            ]))
  in
  let view =
    map
      (fun nodes ->
        toy_view
          (List.map
             (fun (i, p) ->
               (i, (match p with `Root -> None | `Self -> Some i | `To p -> Some p), true))
             nodes))
      (oneof [ graph 48; graph 1000 ])
  in
  QCheck.make view ~print:(fun v ->
      String.concat " "
        (List.map
           (fun (id, st) ->
             Printf.sprintf "%d->%s" (Proto.Node_id.to_int id)
               (match st.parent with None -> "root" | Some p -> string_of_int p))
           v.Proto.View.nodes))

let prop_measures_match_reference =
  QCheck.Test.make ~name:"one-pass tree measures = per-node chain_of fold" ~count:2000
    parent_graph (fun v ->
      let cycle, max_d, mean_d = reference_measures v in
      C.Measure.has_cycle ~parent v = cycle
      && C.Measure.max_depth ~parent v = max_d
      && Float.equal (C.Measure.mean_depth ~parent v) mean_d)

(* The [no-cycle] tracker against the full check, over edit sequences
   on 1–40 nodes: parent moves that make and break cycles, self-loops,
   roots, links out of the view, joins, leaves, duplicate ids,
   reordered views and forks. Two view streams start from one tree and
   are edited in turn, each through its own tracker, as a lookahead
   fork and its parent engine are. *)
type edit =
  | Move of int * int  (** position [i] takes position [j]'s id as parent; [i = j] is a self-loop *)
  | Root of int
  | Away of int * int  (** parent outside the view *)
  | Join of int * int  (** a fresh id, in id order, under position [j] *)
  | Leave of int
  | Dup of int  (** a second binding of position [i]'s id, right after it *)
  | Swap of int  (** positions [i] and [i + 1] trade places *)
  | Fork  (** the stream restarts as a copy of the other one *)

let pp_edit = function
  | Move (i, j) -> Printf.sprintf "move %d->%d" i j
  | Root i -> Printf.sprintf "root %d" i
  | Away (i, k) -> Printf.sprintf "away %d->%d" i (100 + k)
  | Join (id, j) -> Printf.sprintf "join %d under %d" id j
  | Leave i -> Printf.sprintf "leave %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Swap i -> Printf.sprintf "swap %d" i
  | Fork -> "fork"

let apply_edit nodes edit =
  let len = List.length nodes in
  let id_at j = fst (List.nth nodes (j mod len)) in
  let set i p = List.mapi (fun k (id, q) -> if k = i mod len then (id, p) else (id, q)) nodes in
  if len = 0 then match edit with Join (id, _) -> [ (id, None) ] | _ -> nodes
  else
    match edit with
    | Move (i, j) -> set i (Some (id_at j))
    | Root i -> set i None
    | Away (i, k) -> set i (Some (100 + k))
    | Join (id, j) ->
        if List.mem_assoc id nodes then nodes
        else
          let below, above = List.partition (fun (i, _) -> i < id) nodes in
          below @ ((id, Some (id_at j)) :: above)
    | Leave i -> List.filteri (fun k _ -> k <> i mod len) nodes
    | Dup i ->
        List.concat (List.mapi (fun k n -> if k = i mod len then [ n; (fst n, None) ] else [ n ]) nodes)
    | Swap i ->
        let a = Array.of_list nodes in
        let i = i mod len and j = (i + 1) mod len in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x;
        Array.to_list a
    | Fork -> nodes

let edit_script =
  let open QCheck.Gen in
  let pos = int_bound 63 in
  let edit =
    frequency
      [
        (8, map2 (fun i j -> Move (i, j)) pos pos);
        (2, map (fun i -> Root i) pos);
        (1, map2 (fun i k -> Away (i, k)) pos (int_bound 3));
        (2, map2 (fun id j -> Join (id, j)) (int_bound 39) pos);
        (2, map (fun i -> Leave i) pos);
        (1, map (fun i -> Dup i) pos);
        (1, map (fun i -> Swap i) pos);
        (1, return Fork);
      ]
  in
  let tree =
    int_range 1 40 >>= fun n ->
    flatten_l
      (List.init n (fun i ->
           if i = 0 then return (0, None) else map (fun p -> (i, Some p)) (int_bound (i - 1))))
  in
  QCheck.make
    (pair tree (list_size (int_range 1 150) (pair bool edit)))
    ~print:(fun (tree, steps) ->
      Printf.sprintf "%d nodes; %s" (List.length tree)
        (String.concat ", "
           (List.map (fun (b, e) -> (if b then "B " else "A ") ^ pp_edit e) steps)))

let no_cycle =
  List.find
    (fun (p : _ Core.Property.t) -> p.name = "no-cycle")
    (C.properties ~parent ~joined)

let stream_view nodes = toy_view (List.map (fun (i, p) -> (i, p, true)) nodes)

(* The ids whose first binding differs between two streams' nodes: the
   ones an engine would touch. *)
let changed before after =
  List.sort_uniq compare (List.map fst before @ List.map fst after)
  |> List.filter (fun id -> List.assoc_opt id before <> List.assoc_opt id after)

(* Stream 0's tracker starts on the tree and stream 1's is its copy, as
   a fork's is; each edit touches the ids it changed, and a fork edit
   restarts a stream, tracker included, as a copy of the other. *)
let prop_no_cycle_matches_full =
  QCheck.Test.make ~name:"no-cycle = not has_cycle, edit by edit, two streams" ~count:500
    edit_script (fun (tree, steps) ->
      let streams = [| tree; tree |] in
      let first = Core.Property.start no_cycle (stream_view tree) in
      let trackers = [| first; first.copy () |] in
      List.for_all
        (fun (b, e) ->
          let s = if b then 1 else 0 in
          (match e with
          | Fork ->
              streams.(s) <- streams.(1 - s);
              trackers.(s) <- trackers.(1 - s).copy ()
          | _ ->
              let before = streams.(s) in
              streams.(s) <- apply_edit before e;
              List.iter trackers.(s).touch (changed before streams.(s)));
          let v = stream_view streams.(s) in
          let full = no_cycle.holds v in
          trackers.(s).holds v = full && full = not (C.Measure.has_cycle ~parent v))
        steps)

(* ---------- engine-level joins ---------- *)

let topology n = Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let join_run_base resolver n =
  let eng = BE.create ~seed:5 ~jitter:0. ~topology:(topology n) () in
  BE.set_resolver eng resolver;
  for i = 0 to n - 1 do
    BE.spawn eng ~after:(0.3 *. float_of_int i) (nid i)
  done;
  BE.run_for eng (10. +. (0.3 *. float_of_int n));
  eng

let join_run_choice resolver n =
  let eng = CE.create ~seed:5 ~jitter:0. ~topology:(topology n) () in
  CE.set_resolver eng resolver;
  for i = 0 to n - 1 do
    CE.spawn eng ~after:(0.3 *. float_of_int i) (nid i)
  done;
  CE.run_for eng (10. +. (0.3 *. float_of_int n));
  eng

let test_baseline_join_all () =
  let eng = join_run_base Core.Resolver.random 12 in
  let view = BE.global_view eng in
  checki "all present" 12 (Proto.View.node_count view);
  checkb "all joined" true
    (List.for_all (fun (_, st) -> Base.is_joined st) view.Proto.View.nodes);
  checkb "no cycle" false (C.Measure.has_cycle ~parent:Base.parent_of view);
  let d = C.Measure.max_depth ~parent:Base.parent_of view in
  checkb "depth sane" true (d >= 4 && d <= 12);
  checkb "degree bound" true
    (List.for_all
       (fun (_, st) -> List.length (Base.children_of st) <= 2)
       view.Proto.View.nodes)

let test_choice_join_all () =
  let eng = join_run_choice Core.Resolver.random 12 in
  let view = CE.global_view eng in
  checkb "all joined" true
    (List.for_all (fun (_, st) -> Choice.is_joined st) view.Proto.View.nodes);
  checkb "no cycle" false (C.Measure.has_cycle ~parent:Choice.parent_of view);
  checkb "degree bound" true
    (List.for_all
       (fun (_, st) -> List.length (Choice.children_of st) <= 2)
       view.Proto.View.nodes)

let test_choice_exposes_forward_label () =
  let eng = join_run_choice Core.Resolver.random 12 in
  let labels =
    List.map (fun (_, site, _) -> site.Core.Choice.site_label) (CE.decision_sites eng)
  in
  checkb "join.forward decisions happened" true (List.mem Choice.forward_label labels)

let test_baseline_makes_no_choices () =
  let eng = join_run_base Core.Resolver.random 12 in
  checki "policy is hard-coded" 0 (List.length (BE.decision_sites eng))

let test_parent_failure_triggers_rejoin () =
  let eng = join_run_choice Core.Resolver.random 6 in
  let view = CE.global_view eng in
  (* Kill a non-root node that has children. *)
  let victim =
    List.find_map
      (fun (id, st) ->
        if (not (Proto.Node_id.equal id (nid 0))) && Choice.children_of st <> [] then Some id
        else None)
      view.Proto.View.nodes
  in
  match victim with
  | None -> Alcotest.fail "no interior node found"
  | Some v ->
      CE.kill eng v;
      CE.run_for eng 15.;
      CE.restart eng v;
      CE.run_for eng 15.;
      let view = CE.global_view eng in
      checki "everyone back" 6 (Proto.View.node_count view);
      checkb "all joined again" true
        (List.for_all (fun (_, st) -> Choice.is_joined st) view.Proto.View.nodes);
      checkb "still acyclic" false (C.Measure.has_cycle ~parent:Choice.parent_of view)

let test_no_cycle_property_enforced_live () =
  let eng = join_run_choice Core.Resolver.random 10 in
  checki "no property violations during churnless join" 0 (List.length (CE.violations eng))

(* The choice variant whose [no-cycle] tracker also runs the full
   [holds] on every view it is handed, by the engine and by every
   lookahead fork, and counts any disagreement. *)
module Checked = struct
  include Choice

  let no_cycle = Test_support.Differential.counts ()
  let properties = Test_support.Differential.check_named no_cycle "no-cycle" properties
end

module KE = Engine.Sim.Make (Checked)

let test_no_cycle_after_every_event () =
  Test_support.Differential.reset Checked.no_cycle;
  let n = 15 in
  let eng = KE.create ~seed:11 ~jitter:0. ~topology:(topology n) () in
  KE.set_lookahead eng { KE.default_lookahead with horizon = 3.0; max_events = 600 };
  for i = 0 to n - 1 do
    KE.spawn eng ~after:(0.3 *. float_of_int i) (nid i)
  done;
  KE.run_for eng 8.;
  let churn = Dsim.Rng.create 3 in
  for _ = 1 to 6 do
    let a = nid (1 + Dsim.Rng.int churn (n - 1)) and b = nid (1 + Dsim.Rng.int churn (n - 1)) in
    KE.kill eng a;
    KE.run_for eng 1.;
    KE.kill eng b;
    KE.run_for eng 2.;
    KE.restart eng a;
    KE.restart eng b;
    KE.run_for eng 3.
  done;
  let s = KE.stats eng in
  checkb "lookahead forks ran" true (s.lookahead_forks > 0);
  checkb "forks checked views too" true (Checked.no_cycle.checks > s.events_processed);
  checki "tracked and full verdicts agree" 0 Checked.no_cycle.mismatches

(* The engine patches its live-node list after each handler and
   rebuilds it after boots, kills and restarts. Under lookahead and
   churn, after every single event the list must be the one rebuilt
   from [state_of] over ascending ids, holding the very state values.
   Each kill lands between two events, so the next handler runs with
   the list out of date. *)
let test_live_list_after_every_step () =
  let n = 12 in
  let eng = CE.create ~seed:5 ~jitter:0. ~topology:(topology n) () in
  CE.set_lookahead eng { CE.default_lookahead with horizon = 3.0; max_events = 600 };
  for i = 0 to n - 1 do
    CE.spawn eng ~after:(0.3 *. float_of_int i) (nid i)
  done;
  let steps = ref 0 and mismatches = ref 0 in
  let rebuilt () =
    List.filter_map
      (fun i -> Option.map (fun st -> (nid i, st)) (CE.state_of eng (nid i)))
      (List.init n Fun.id)
  in
  let same (a, st) (b, st') = Proto.Node_id.equal a b && st == st' in
  let run_until t =
    while Dsim.Vtime.to_seconds (CE.now eng) < t && CE.step eng do
      incr steps;
      if not (List.equal same (rebuilt ()) (CE.live_nodes eng)) then incr mismatches
    done
  in
  run_until 5.;
  CE.kill eng (nid 3);
  run_until 6.;
  CE.kill eng (nid 7);
  CE.kill eng (nid 11);
  run_until 8.;
  CE.restart eng (nid 3);
  run_until 10.;
  CE.kill eng (nid 3);
  CE.restart eng (nid 7);
  run_until 12.;
  CE.restart eng (nid 3);
  CE.restart eng (nid 11);
  run_until 16.;
  checkb "events ran" true (!steps > 200);
  checkb "lookahead forks ran" true ((CE.stats eng).lookahead_forks > 0);
  checki "live list = rebuilt list after every event" 0 !mismatches

(* ---------- experiment-level ---------- *)

let test_experiment_shapes () =
  let o = Experiments.Randtree_exp.run ~nodes:15 ~seed:3 ~with_failure:false
      Experiments.Randtree_exp.Choice_random
  in
  checki "all joined" 15 o.Experiments.Randtree_exp.joined;
  checkb "depth plausible" true (o.depth_after_join >= 4 && o.depth_after_join <= 15);
  checkb "no rejoin measured" true (o.depth_after_rejoin = None)

let test_optimal_depth () =
  checki "31 nodes binary" 5 (Experiments.Randtree_exp.optimal_depth ~nodes:31 ~max_children:2);
  checki "1 node" 1 (Experiments.Randtree_exp.optimal_depth ~nodes:1 ~max_children:2);
  checki "4 nodes ternary" 2 (Experiments.Randtree_exp.optimal_depth ~nodes:4 ~max_children:3)

let test_baseline_equals_choice_random () =
  (* The paper reports identical depths for Baseline and Choice-Random;
     with a shared seed our two implementations agree exactly. *)
  let b = Experiments.Randtree_exp.run ~nodes:15 ~seed:8 Experiments.Randtree_exp.Baseline in
  let c = Experiments.Randtree_exp.run ~nodes:15 ~seed:8 Experiments.Randtree_exp.Choice_random in
  checki "join depths equal" b.Experiments.Randtree_exp.depth_after_join
    c.Experiments.Randtree_exp.depth_after_join

let () =
  Alcotest.run "randtree"
    [
      ("messages", [ Alcotest.test_case "kinds" `Quick test_msg_kinds ]);
      ( "measure",
        [
          Alcotest.test_case "depths" `Quick test_measure_depths;
          Alcotest.test_case "cycle" `Quick test_measure_cycle;
          Alcotest.test_case "left view" `Quick test_measure_left_view_is_not_cycle;
          Alcotest.test_case "joined count" `Quick test_measure_joined_count;
          QCheck_alcotest.to_alcotest prop_measures_match_reference;
          QCheck_alcotest.to_alcotest prop_no_cycle_matches_full;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "baseline joins" `Quick test_baseline_join_all;
          Alcotest.test_case "choice joins" `Quick test_choice_join_all;
          Alcotest.test_case "choice exposes label" `Quick test_choice_exposes_forward_label;
          Alcotest.test_case "baseline has no choices" `Quick test_baseline_makes_no_choices;
          Alcotest.test_case "failure rejoin" `Slow test_parent_failure_triggers_rejoin;
          Alcotest.test_case "live property check" `Quick test_no_cycle_property_enforced_live;
          Alcotest.test_case "no-cycle = full check per event" `Quick
            test_no_cycle_after_every_event;
          Alcotest.test_case "live list after every event" `Quick test_live_list_after_every_step;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "shapes" `Slow test_experiment_shapes;
          Alcotest.test_case "optimal depth" `Quick test_optimal_depth;
          Alcotest.test_case "baseline = choice-random" `Slow test_baseline_equals_choice_random;
        ] );
    ]
