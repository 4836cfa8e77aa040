(* Cross-cutting property-based tests: system-level invariants that
   should hold for arbitrary seeds, workloads and parameters. *)

module Lock = Test_support.Lock_app
module E = Engine.Sim.Make (Lock)
module Ex = Mc.Explorer.Make (Lock)

let nid = Proto.Node_id.of_int

let topology n =
  Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.02 ~bandwidth:100_000. ~loss:0.)

(* ---------- engine determinism ---------- *)

(* A run is a pure function of its seed: same seed, same workload ->
   identical trajectory (event counts, decisions, final states). *)
let run_fingerprint ~seed ~moves =
  let eng = E.create ~seed ~topology:(topology 4) () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to 3 do
    E.spawn eng (nid i)
  done;
  List.iteri
    (fun i (src, dst, m) ->
      let msg = match m mod 3 with 0 -> Lock.Grant | 1 -> Lock.Release | _ -> Lock.Flip in
      E.inject eng
        ~after:(0.05 +. (0.1 *. float_of_int i))
        ~src:(nid (abs src mod 4))
        ~dst:(nid (abs dst mod 4))
        msg)
    moves;
  E.run_for eng 5.;
  let stats = E.stats eng in
  let states =
    List.map
      (fun (id, st) -> (Proto.Node_id.to_int id, st.Lock.holding))
      (E.live_nodes eng)
  in
  (stats.events_processed, stats.messages_delivered, stats.decisions, states)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are pure functions of the seed" ~count:8
    QCheck.(pair small_nat (small_list (triple small_int small_int small_int)))
    (fun (seed, moves) -> run_fingerprint ~seed ~moves = run_fingerprint ~seed ~moves)

let prop_engine_seed_sensitive =
  QCheck.Test.make ~name:"different seeds give different rng streams (sanity)" ~count:5
    QCheck.unit
    (fun () ->
      (* Not a universal law (workloads can coincide), but for a Flip
         workload with 20 choices collisions are vanishing. *)
      let moves = List.init 20 (fun i -> (i, i + 1, 2)) in
      run_fingerprint ~seed:1 ~moves = run_fingerprint ~seed:1 ~moves)

(* A fork is a perfect replica: running the original and its fork
   forward by the same amount yields identical trajectories. The entire
   lookahead mechanism rests on this. *)
let prop_fork_fidelity =
  QCheck.Test.make ~name:"fork and original evolve identically" ~count:10
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 6) (triple small_int small_int small_int)))
    (fun (seed, moves) ->
      let eng = E.create ~seed ~topology:(topology 4) () in
      E.set_resolver eng Core.Resolver.random;
      for i = 0 to 3 do
        E.spawn eng (nid i)
      done;
      List.iteri
        (fun i (src, dst, m) ->
          let msg = match m mod 3 with 0 -> Lock.Grant | 1 -> Lock.Release | _ -> Lock.Flip in
          E.inject eng
            ~after:(0.05 +. (0.2 *. float_of_int i))
            ~src:(nid (abs src mod 4))
            ~dst:(nid (abs dst mod 4))
            msg)
        moves;
      E.run_for eng 0.4;
      let fork = E.fork eng in
      E.run_for eng 5.;
      E.run_for fork 5.;
      let states e =
        List.map (fun (id, st) -> (Proto.Node_id.to_int id, st.Lock.holding)) (E.live_nodes e)
      in
      states eng = states fork
      && (E.stats eng).messages_delivered = (E.stats fork).messages_delivered)

(* ---------- explorer purity and monotonicity ---------- *)

let world_of_moves moves : Ex.world =
  {
    states =
      List.fold_left
        (fun m i -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding = i = 0 } m)
        Proto.Node_id.Map.empty [ 0; 1; 2 ];
    pending =
      List.map
        (fun (src, dst, m) ->
          let msg = match m mod 3 with 0 -> Lock.Grant | 1 -> Lock.Release | _ -> Lock.Flip in
          (nid (abs src mod 3), nid (abs dst mod 3), msg))
        moves;
    timers = [];
    clocks = [];
  }

let few_moves = QCheck.(list_of_size Gen.(0 -- 4) (triple small_int small_int small_int))

let prop_explorer_pure =
  QCheck.Test.make ~name:"exploration is deterministic" ~count:20
    few_moves
    (fun moves ->
      let w = world_of_moves moves in
      let a = Ex.explore ~depth:3 w and b = Ex.explore ~depth:3 w in
      a.Ex.worlds_explored = b.Ex.worlds_explored
      && List.length a.Ex.violations = List.length b.Ex.violations)

let prop_explorer_depth_monotone =
  QCheck.Test.make ~name:"deeper exploration covers at least as much" ~count:20
    few_moves
    (fun moves ->
      let w = world_of_moves moves in
      let shallow = Ex.explore ~depth:2 w and deep = Ex.explore ~depth:4 w in
      deep.Ex.worlds_explored >= shallow.Ex.worlds_explored
      && List.length deep.Ex.violations >= List.length shallow.Ex.violations)

let prop_explorer_budget_respected =
  QCheck.Test.make ~name:"max_worlds is a hard budget" ~count:30
    QCheck.(pair (int_range 1 50) (list_of_size Gen.(0 -- 4) (triple small_int small_int small_int)))
    (fun (budget, moves) ->
      let r = Ex.explore ~max_worlds:budget ~depth:5 (world_of_moves moves) in
      r.Ex.worlds_explored <= budget)

(* Cross-validation: any state the engine actually reaches by
   delivering a set of in-flight messages (in whatever order its clock
   produces) must be among the worlds the explorer enumerates from the
   same starting point — the explorer over-approximates the engine. *)
let prop_explorer_covers_engine =
  QCheck.Test.make ~name:"explorer worlds cover engine executions" ~count:15
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 3) (triple small_int small_int (int_bound 1))))
    (fun (seed, moves) ->
      (* Grant/Release only: deterministic handlers, no choice noise. *)
      let msgs =
        List.map
          (fun (src, dst, m) ->
            (abs src mod 3, abs dst mod 3, if m = 0 then Lock.Grant else Lock.Release))
          moves
      in
      (* Engine run: inject all messages at staggered times, run out. *)
      let eng = E.create ~seed ~topology:(topology 3) () in
      E.set_resolver eng Core.Resolver.random;
      for i = 0 to 2 do
        E.spawn eng (nid i)
      done;
      E.run_for eng 0.01;
      List.iteri
        (fun i (src, dst, m) ->
          E.inject eng ~after:(0.01 +. (0.001 *. float_of_int i)) ~src:(nid src) ~dst:(nid dst) m)
        msgs;
      E.run_for eng 5.;
      let final =
        List.map (fun (id, st) -> (Proto.Node_id.to_int id, st.Lock.holding)) (E.live_nodes eng)
      in
      (* Explorer from the matching start world, full depth. *)
      let w : Ex.world =
        {
          states =
            List.fold_left
              (fun m i -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding = false } m)
              Proto.Node_id.Map.empty [ 0; 1; 2 ];
          pending = List.map (fun (s, d, m) -> (nid s, nid d, m)) msgs;
          timers = [];
          clocks = [];
        }
      in
      (* Collect every explored world's holding-vector by re-walking:
         explore exposes counts, not worlds, so instead check the final
         engine state is reachable by SOME delivery order — which, for
         commutative-per-node Grant/Release, equals: explorer at depth
         |msgs| finds no violation the engine missed and vice versa. *)
      let r = Ex.explore ~depth:(List.length msgs) w in
      let engine_violated = E.violations eng <> [] in
      let explorer_can_violate =
        List.exists (fun (v : Ex.violation) -> v.Ex.property = "mutex") r.Ex.violations
      in
      (* Soundness direction: if the engine hit a violation, the
         explorer must predict it as possible. *)
      (not engine_violated) || explorer_can_violate || final = [])

(* ---------- netem access-link FIFO ---------- *)

let prop_netem_fifo =
  QCheck.Test.make ~name:"same-uplink deliveries keep send order" ~count:50
    QCheck.(small_list (int_range 1 10_000))
    (fun sizes ->
      let nem =
        Net.Netem.create ~jitter:0. ~serialize_access:true ~rng:(Dsim.Rng.create 1)
          (Net.Topology.uniform ~n:2 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1000. ~loss:0.))
      in
      let rec ordered last = function
        | [] -> true
        | bytes :: rest -> (
            match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes with
            | Net.Netem.Deliver ->
                let d = Net.Netem.delay nem in
                d >= last && ordered d rest
            | _ -> false)
      in
      ordered 0. sizes)

let prop_netem_queueing_slower_than_parallel =
  QCheck.Test.make ~name:"serialization never beats the unqueued link" ~count:50
    QCheck.(int_range 1 5)
    (fun n ->
      let mk serialize_access =
        Net.Netem.create ~jitter:0. ~serialize_access ~rng:(Dsim.Rng.create 1)
          (Net.Topology.uniform ~n:2 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1000. ~loss:0.))
      in
      let q = mk true and p = mk false in
      List.for_all
        (fun _ ->
          match
            ( Net.Netem.judge q ~now:0. ~src:0 ~dst:1 ~bytes:500,
              Net.Netem.judge p ~now:0. ~src:0 ~dst:1 ~bytes:500 )
          with
          | Net.Netem.Deliver, Net.Netem.Deliver -> Net.Netem.delay q >= Net.Netem.delay p -. 1e-9
          | _ -> false)
        (List.init n Fun.id))

(* ---------- code metrics ---------- *)

let ocamlish_line =
  QCheck.Gen.oneofl
    [
      "let x = 1";
      "let handle_m st = if p st then a else b";
      "  if x then y else z";
      "";
      "type t = A | B";
      "let pp fmt = ()";
    ]

let prop_strip_idempotent =
  QCheck.Test.make ~name:"comment stripping is idempotent" ~count:100
    (QCheck.make QCheck.Gen.(map (String.concat "\n") (list_size (1 -- 20) ocamlish_line)))
    (fun src ->
      let once = Metrics.Code_metrics.strip src in
      Metrics.Code_metrics.strip once = once)

let prop_comments_do_not_count =
  QCheck.Test.make ~name:"inserting comment-only lines never changes LoC" ~count:100
    (QCheck.make QCheck.Gen.(map (String.concat "\n") (list_size (1 -- 20) ocamlish_line)))
    (fun src ->
      let noisy =
        String.concat "\n"
          (List.concat_map
             (fun line -> [ "(* noise *)"; line ])
             (String.split_on_char '\n' src))
      in
      (Metrics.Code_metrics.analyze_source ~file:"a" src).Metrics.Code_metrics.loc
      = (Metrics.Code_metrics.analyze_source ~file:"b" noisy).Metrics.Code_metrics.loc)

(* ---------- stats ---------- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:100
    QCheck.(pair (list_of_size Gen.(2 -- 30) (float_bound_exclusive 100.)) (pair (int_bound 100) (int_bound 100)))
    (fun (xs, (p1, p2)) ->
      let s = Dsim.Stats.create () in
      List.iter (Dsim.Stats.add s) xs;
      let lo = min p1 p2 and hi = max p1 p2 in
      Dsim.Stats.percentile s (float_of_int lo) <= Dsim.Stats.percentile s (float_of_int hi) +. 1e-9)

(* ---------- view ---------- *)

let prop_view_restrict_shrinks =
  QCheck.Test.make ~name:"restricting a view never grows it" ~count:100
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (nodes, keep) ->
      let nodes = List.sort_uniq compare nodes in
      let view : (int, unit) Proto.View.t =
        Proto.View.v ~time:Dsim.Vtime.zero ~nodes:(List.map (fun i -> (nid i, i)) nodes)
          ~inflight:[]
      in
      let keep_set = Proto.Node_id.Set.of_list (List.map nid keep) in
      let r = Proto.View.restrict view keep_set in
      Proto.View.node_count r <= Proto.View.node_count view
      && List.for_all (fun (id, _) -> Proto.Node_id.Set.mem id keep_set) r.Proto.View.nodes)

(* ---------- safety verdicts do not read the view's time ----------

   A safety verdict reads node states and in-flight messages only
   (Core.Property). For each shipped app, a seeded run takes its
   global view every quarter second while one node after another
   crashes with its disk wiped and restarts; each view's safety
   verdicts must stay the same when only its time moves. *)
module Timeless (A : Proto.App_intf.APP) = struct
  module Eng = Engine.Sim.Make (A)

  let safety =
    List.filter (fun (p : _ Core.Property.t) -> p.kind = Core.Property.Safety) A.properties

  let verdicts view = List.map (fun (p : _ Core.Property.t) -> p.holds view) safety

  (* (views taken, views whose verdicts moved with the time, views
     violating some safety property) *)
  let run ~n ~setup =
    let eng = Eng.create ~seed:3 ~topology:(topology n) () in
    setup eng;
    let moved = ref 0 and violating = ref 0 in
    let views = 80 in
    for step = 1 to views do
      Eng.run_for eng 0.25;
      if step mod 10 = 0 then begin
        let victim = nid (1 + (step / 10 mod (n - 1))) in
        Eng.kill_amnesia eng victim;
        Eng.restart eng ~after:1.0 victim
      end;
      let view = Eng.global_view eng in
      let base = verdicts view in
      if List.mem false base then incr violating;
      if
        List.exists
          (fun time -> verdicts { view with Proto.View.time } <> base)
          [
            Dsim.Vtime.zero;
            Dsim.Vtime.add view.time 0.5;
            Dsim.Vtime.add view.time 3600.;
            Dsim.Vtime.of_seconds 1e9;
          ]
      then incr moved
    done;
    (views, !moved, !violating)
end

let spawn_all (spawn : ?after:float -> Proto.Node_id.t -> unit) n =
  for i = 0 to n - 1 do
    spawn ~after:(0.2 *. float_of_int i) (nid i)
  done

module T_paxos = Timeless (Apps.Paxos.Default)
module T_kvstore = Timeless (Apps.Kvstore.Default)
module T_gossip = Timeless (Apps.Gossip.Default)
module T_gossip_baseline = Timeless (Apps.Gossip_baseline.Default)
module T_dht = Timeless (Apps.Dht.Default)
module T_dissem = Timeless (Apps.Dissem.Default)
module T_lease = Timeless (Apps.Lease.Default)
module T_tree_baseline = Timeless (Apps.Randtree_baseline.Default)
module T_tree_choice = Timeless (Apps.Randtree_choice.Default)

let timeless_runs () =
  let rumors spawn
      (inject :
        ?after:float -> src:Proto.Node_id.t -> dst:Proto.Node_id.t -> Apps.Gossip.msg -> unit) n =
    spawn_all spawn n;
    inject ~after:0.5 ~src:(nid 1) ~dst:(nid 1)
      (Apps.Gossip.Default.seed_rumors (nid 1) [ 0; 1; 2 ])
  in
  [
    ( "paxos",
      T_paxos.run ~n:Apps.Paxos.Default_params.population ~setup:(fun e ->
          T_paxos.Eng.set_resolver e Apps.Paxos.self_resolver;
          spawn_all (T_paxos.Eng.spawn e) Apps.Paxos.Default_params.population) );
    ( "kvstore",
      T_kvstore.run ~n:Apps.Kvstore.Default_params.population ~setup:(fun e ->
          T_kvstore.Eng.set_resolver e Apps.Kvstore.session_resolver;
          spawn_all (T_kvstore.Eng.spawn e) Apps.Kvstore.Default_params.population) );
    ( "gossip",
      T_gossip.run ~n:Apps.Gossip.Default_params.population ~setup:(fun e ->
          T_gossip.Eng.set_resolver e Core.Resolver.random;
          rumors (T_gossip.Eng.spawn e) (T_gossip.Eng.inject e)
            Apps.Gossip.Default_params.population) );
    ( "gossip_baseline",
      T_gossip_baseline.run ~n:Apps.Gossip.Default_params.population ~setup:(fun e ->
          rumors (T_gossip_baseline.Eng.spawn e) (T_gossip_baseline.Eng.inject e)
            Apps.Gossip.Default_params.population) );
    ( "dht",
      T_dht.run ~n:Apps.Dht.Default_params.population ~setup:(fun e ->
          T_dht.Eng.set_resolver e Core.Resolver.random;
          spawn_all (T_dht.Eng.spawn e) Apps.Dht.Default_params.population) );
    ( "dissem",
      T_dissem.run ~n:Apps.Dissem.Default_params.population ~setup:(fun e ->
          T_dissem.Eng.set_resolver e Core.Resolver.random;
          spawn_all (T_dissem.Eng.spawn e) Apps.Dissem.Default_params.population) );
    ( "lease",
      T_lease.run ~n:Apps.Lease.Default_params.population ~setup:(fun e ->
          spawn_all (T_lease.Eng.spawn e) Apps.Lease.Default_params.population) );
    ( "randtree baseline",
      T_tree_baseline.run ~n:12 ~setup:(fun e ->
          T_tree_baseline.Eng.set_resolver e Core.Resolver.random;
          spawn_all (T_tree_baseline.Eng.spawn e) 12) );
    ( "randtree choice",
      T_tree_choice.run ~n:12 ~setup:(fun e ->
          T_tree_choice.Eng.set_resolver e Core.Resolver.random;
          spawn_all (T_tree_choice.Eng.spawn e) 12) );
  ]

let test_safety_ignores_view_time () =
  let runs = timeless_runs () in
  List.iter
    (fun (app, (views, moved, violating)) ->
      Printf.printf "%-18s %d views, %d violating, %d moved with the time\n" app views violating
        moved;
      Alcotest.(check int) (app ^ ": verdicts unchanged when the time moves") 0 moved)
    runs

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "properties"
    [
      ( "engine",
        qcheck [ prop_engine_deterministic; prop_engine_seed_sensitive; prop_fork_fidelity ] );
      ( "explorer",
        qcheck
          [
            prop_explorer_pure;
            prop_explorer_depth_monotone;
            prop_explorer_budget_respected;
            prop_explorer_covers_engine;
          ] );
      ("netem", qcheck [ prop_netem_fifo; prop_netem_queueing_slower_than_parallel ]);
      ("metrics", qcheck [ prop_strip_idempotent; prop_comments_do_not_count ]);
      ("stats", qcheck [ prop_percentile_monotone ]);
      ("view", qcheck [ prop_view_restrict_shrinks ]);
      ( "safety",
        [
          Alcotest.test_case "verdicts ignore the view's time" `Quick
            test_safety_ignores_view_time;
        ] );
    ]
