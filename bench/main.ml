(* The benchmark harness: regenerates every quantity the paper reports
   (E1-E3), every motivating comparison of its §3.1 (E4-E6), the
   steering result its §2 rests on (S1), and the ablations DESIGN.md
   calls out (A1-A3) — followed by Bechamel micro-benchmarks of the
   runtime machinery. Paper-reported values are printed alongside
   measured ones; EXPERIMENTS.md records the comparison. *)

let fast = Array.exists (String.equal "--fast") Sys.argv

(* Run only the exploration-engine section (and emit BENCH_explorer.json)
   without regenerating every experiment table. *)
let explorer_only = Array.exists (String.equal "--explorer-only") Sys.argv

(* Run only the observability section (and emit BENCH_obs.json) *)
let obs_only = Array.exists (String.equal "--obs-only") Sys.argv

(* Run only the failure-detector/reliable-delivery section (and emit
   BENCH_fd.json) *)
let fd_only = Array.exists (String.equal "--fd-only") Sys.argv

(* Run only the overload-robustness section (and emit
   BENCH_overload.json) *)
let overload_only = Array.exists (String.equal "--overload-only") Sys.argv

(* Run only the per-node clock section (and emit BENCH_clock.json) *)
let clock_only = Array.exists (String.equal "--clock-only") Sys.argv

(* Run only the byzantine-mutation section (and emit BENCH_byz.json) *)
let byz_only = Array.exists (String.equal "--byz-only") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let seeds = if fast then [ 42 ] else [ 42; 43; 44 ]

(* ------------------------------------------------------------------ *)
(* E1: code metrics                                                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Code metrics: baseline vs choice-exposed RandTree (paper S4)";
  match Experiments.Metrics_exp.run () with
  | None -> print_endline "  (sources not found; run from the repository root)"
  | Some c ->
      let row name (m : Metrics.Code_metrics.t) paper_loc paper_cx =
        [
          name;
          Metrics.Report.fint m.loc;
          Metrics.Report.fint m.handlers;
          Metrics.Report.ffloat m.per_handler;
          paper_loc;
          paper_cx;
        ]
      in
      Metrics.Report.print ~title:"code size and handler complexity"
        ~header:[ "variant"; "LoC"; "handlers"; "if-else/handler"; "paper LoC"; "paper if/h" ]
        [
          row "baseline" c.baseline "487" "1.94";
          row "choice-exposed" c.choice "280" "0.28";
        ];
      Printf.printf "  LoC reduction: %.0f%% measured (paper: 43%%)\n" c.loc_reduction_percent;
      (* E1b: the same comparison on a second protocol. *)
      (match Experiments.Metrics_exp.run_gossip () with
      | None -> ()
      | Some g ->
          let short name (m : Metrics.Code_metrics.t) =
            [
              name;
              Metrics.Report.fint m.loc;
              Metrics.Report.fint m.handlers;
              Metrics.Report.ffloat m.per_handler;
            ]
          in
          Metrics.Report.print ~title:"E1b  the same pattern on the gossip pair"
            ~header:[ "variant"; "LoC"; "handlers"; "if-else/handler" ]
            [ short "gossip-baseline" g.baseline; short "gossip-choice" g.choice ];
          Printf.printf "  LoC reduction: %.0f%%\n" g.loc_reduction_percent)

(* ------------------------------------------------------------------ *)
(* E2/E3: RandTree join and rejoin depth                                *)
(* ------------------------------------------------------------------ *)

let e23 () =
  section "E2/E3  RandTree max depth: join, then fail+rejoin a subtree (paper S4)";
  let setups =
    if fast then Experiments.Randtree_exp.paper_setups else Experiments.Randtree_exp.all_setups
  in
  let paper_join = function
    | Experiments.Randtree_exp.Baseline | Experiments.Randtree_exp.Choice_random
    | Experiments.Randtree_exp.Choice_crystalball ->
        "6"
    | Experiments.Randtree_exp.Choice_greedy | Experiments.Randtree_exp.Choice_bandit -> "-"
  in
  let paper_rejoin = function
    | Experiments.Randtree_exp.Baseline | Experiments.Randtree_exp.Choice_random -> "10"
    | Experiments.Randtree_exp.Choice_crystalball -> "9"
    | Experiments.Randtree_exp.Choice_greedy | Experiments.Randtree_exp.Choice_bandit -> "-"
  in
  let rows =
    List.map
      (fun setup ->
        let o = Experiments.Randtree_exp.run_median ~seeds setup in
        [
          Experiments.Randtree_exp.setup_name setup;
          Metrics.Report.fint o.Experiments.Randtree_exp.depth_after_join;
          Metrics.Report.fopt_int o.Experiments.Randtree_exp.depth_after_rejoin;
          paper_join setup;
          paper_rejoin setup;
          Metrics.Report.fint o.Experiments.Randtree_exp.messages;
        ])
      setups
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "31 nodes, optimal depth %d (median of %d seed(s))"
         (Experiments.Randtree_exp.optimal_depth ~nodes:31 ~max_children:2)
         (List.length seeds))
    ~header:[ "setup"; "join depth"; "rejoin depth"; "paper join"; "paper rejoin"; "msgs" ]
    rows

(* E3b extension: sustained churn instead of one mass failure. *)
let e3b () =
  section "E3b  Extension: RandTree under continuous churn (kill/restart every 4s)";
  let rows =
    List.map
      (fun setup ->
        let o =
          Experiments.Randtree_exp.run_churn ~seed:(List.hd seeds)
            ~duration:(if fast then 60. else 120.)
            setup
        in
        [
          Experiments.Randtree_exp.setup_name setup;
          Metrics.Report.ffloat o.Experiments.Randtree_exp.mean_depth;
          Metrics.Report.fint o.Experiments.Randtree_exp.worst_depth;
          Metrics.Report.ffloat o.Experiments.Randtree_exp.mean_joined;
        ])
      Experiments.Randtree_exp.paper_setups
  in
  Metrics.Report.print ~title:"sampled every 4s while one node is always failing or rejoining"
    ~header:[ "setup"; "mean depth"; "worst depth"; "mean joined" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: gossip peer choice                                               *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Gossip: peer-selection policies (paper S3.1, BAR Gossip / FlightPath)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o =
              Experiments.Gossip_exp.run ~seed:(List.hd seeds)
                ~waves:(if fast then 3 else 5)
                ~scenario policy
            in
            [
              Experiments.Gossip_exp.policy_name policy;
              Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
              Metrics.Report.ffloat o.Experiments.Gossip_exp.max_coverage_s;
              Metrics.Report.fint o.Experiments.Gossip_exp.messages;
            ])
          Experiments.Gossip_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "rumor coverage time, scenario = %s"
             (Experiments.Gossip_exp.scenario_name scenario))
        ~header:[ "policy"; "mean (s)"; "max (s)"; "msgs" ]
        rows)
    [ Experiments.Gossip_exp.Uniform; Experiments.Gossip_exp.Slow_stub ]

(* ------------------------------------------------------------------ *)
(* E5: content distribution block choice                                *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Content distribution: block-selection policies (paper S3.1)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o = Experiments.Dissem_exp.run ~seed:(List.hd seeds) ~scenario policy in
            [
              Experiments.Dissem_exp.policy_name policy;
              Printf.sprintf "%d/15" o.Experiments.Dissem_exp.completed;
              Metrics.Report.ffloat o.Experiments.Dissem_exp.mean_completion_s;
              Metrics.Report.ffloat o.Experiments.Dissem_exp.max_completion_s;
              Metrics.Report.fint o.Experiments.Dissem_exp.duplicate_pieces;
            ])
          Experiments.Dissem_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "64-block file, scenario = %s"
             (Experiments.Dissem_exp.scenario_name scenario))
        ~header:[ "policy"; "done"; "mean (s)"; "max (s)"; "dup pieces" ]
        rows)
    Experiments.Dissem_exp.all_scenarios

(* ------------------------------------------------------------------ *)
(* E6: Paxos proposer choice                                            *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Consensus: proposer-assignment policies (paper S3.1, Paxos/Mencius)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o =
              Experiments.Paxos_exp.run ~seed:(List.hd seeds)
                ~duration:(if fast then 30. else 60.)
                ~scenario policy
            in
            [
              Experiments.Paxos_exp.policy_name policy;
              Printf.sprintf "%d/%d" o.Experiments.Paxos_exp.committed
                o.Experiments.Paxos_exp.born;
              Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.mean_latency_ms;
              Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.p99_latency_ms;
              Metrics.Report.fint o.Experiments.Paxos_exp.agreement_violations;
            ])
          Experiments.Paxos_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "5 replicas over 3 WAN areas, scenario = %s"
             (Experiments.Paxos_exp.scenario_name scenario))
        ~header:[ "policy"; "committed"; "mean (ms)"; "p99 (ms)"; "agreement viol." ]
        rows)
    Experiments.Paxos_exp.all_scenarios

(* ------------------------------------------------------------------ *)
(* E7: DHT routing choice                                               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  DHT: next-hop routing policies (paper S3.1, 'the node to forward a message to')";
  let rows =
    List.map
      (fun policy ->
        let o =
          Experiments.Dht_exp.run ~seed:(List.hd seeds) ~duration:(if fast then 20. else 40.)
            policy
        in
        [
          Experiments.Dht_exp.policy_name policy;
          Printf.sprintf "%d/%d" o.Experiments.Dht_exp.completed o.Experiments.Dht_exp.issued;
          Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.mean_latency_ms;
          Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.p99_latency_ms;
          Metrics.Report.ffloat o.Experiments.Dht_exp.mean_hops;
        ])
      Experiments.Dht_exp.all_policies
  in
  Metrics.Report.print ~title:"32-node Chord ring over a 4-area WAN, random lookups"
    ~header:[ "policy"; "completed"; "mean (ms)"; "p99 (ms)"; "mean hops" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: replicated KV store read-replica choice                          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Replicated KV store: read-replica choice (paper S3.2, consistency as performance)";
  let rows =
    List.map
      (fun policy ->
        let o =
          Experiments.Kvstore_exp.run ~seed:(List.hd seeds) ~duration:(if fast then 30. else 60.)
            policy
        in
        [
          Experiments.Kvstore_exp.policy_name policy;
          Metrics.Report.fint o.Experiments.Kvstore_exp.reads;
          Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.mean_read_ms;
          Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.p99_read_ms;
          Metrics.Report.ffloat o.Experiments.Kvstore_exp.mean_staleness;
          Metrics.Report.fint o.Experiments.Kvstore_exp.monotonic_violations;
        ])
      Experiments.Kvstore_exp.all_policies
  in
  Metrics.Report.print
    ~title:"5 replicas over 3 WAN areas; every session reads and writes"
    ~header:[ "policy"; "reads"; "mean (ms)"; "p99 (ms)"; "staleness"; "mono viol." ]
    rows

(* ------------------------------------------------------------------ *)
(* S1: execution steering                                               *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1  Execution steering on the buggy lease service (paper S2)";
  let base = Experiments.Steering_exp.run ~with_runtime:false () in
  let steered = Experiments.Steering_exp.run ~with_runtime:true () in
  Metrics.Report.print ~title:"120s of lease traffic, premature-expiry race armed"
    ~header:[ "setup"; "exclusivity violations"; "grants served"; "msgs filtered"; "vetoes" ]
    [
      [
        "no runtime";
        Metrics.Report.fint base.Experiments.Steering_exp.violations;
        Metrics.Report.fint base.Experiments.Steering_exp.grants;
        "0";
        "0";
      ];
      [
        "CrystalBall runtime";
        Metrics.Report.fint steered.Experiments.Steering_exp.violations;
        Metrics.Report.fint steered.Experiments.Steering_exp.grants;
        Metrics.Report.fint steered.Experiments.Steering_exp.filtered;
        Metrics.Report.fint steered.Experiments.Steering_exp.vetoes;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* A1: lookahead horizon ablation                                       *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1  Ablation: lookahead horizon vs rejoin quality (paper S3.4 'fast enough')";
  let module RT = Experiments.Randtree_exp in
  let module CE = RT.Choice_engine in
  let run_with_horizon ~seed horizon =
    let nodes = 31 in
    let eng = CE.create ~seed ~topology:(RT.topology ~seed ~nodes) () in
    if horizon <= 0. then CE.set_resolver eng Core.Resolver.random
    else CE.set_lookahead eng { CE.default_lookahead with horizon; max_events = 600 };
    let d : RT.driver =
      {
        spawn = (fun ?after i -> CE.spawn eng ?after (Proto.Node_id.of_int i));
        kill = (fun i -> CE.kill eng (Proto.Node_id.of_int i));
        restart = (fun ?after i -> CE.restart eng ?after (Proto.Node_id.of_int i));
        run_for = (fun dt -> CE.run_for eng dt);
        max_depth = (fun () -> RT.Choice_shape.max_depth (CE.global_view eng));
        joined_count = (fun () -> RT.Choice_shape.joined (CE.global_view eng));
        subtree_of_root_child =
          (fun () ->
            RT.Choice_shape.largest_root_subtree (CE.global_view eng)
              ~root:(Proto.Node_id.of_int 0));
        messages = (fun () -> (CE.stats eng).messages_delivered);
        forks = (fun () -> (CE.stats eng).lookahead_forks);
      }
    in
    RT.join_phase d ~nodes ~seed;
    let join_depth = d.RT.max_depth () in
    let _victims = RT.rejoin_phase d ~seed in
    (join_depth, d.RT.max_depth (), d.RT.forks ())
  in
  let median xs =
    let sorted = List.sort Int.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let rows =
    List.map
      (fun horizon ->
        let runs = List.map (fun seed -> run_with_horizon ~seed horizon) seeds in
        let join = median (List.map (fun (j, _, _) -> j) runs) in
        let rejoin = median (List.map (fun (_, r, _) -> r) runs) in
        let forks = List.fold_left (fun acc (_, _, f) -> acc + f) 0 runs / List.length runs in
        [
          (if horizon <= 0. then "0 (no lookahead)" else Printf.sprintf "%.1fs" horizon);
          Metrics.Report.fint join;
          Metrics.Report.fint rejoin;
          Metrics.Report.fint forks;
        ])
      (if fast then [ 0.; 1.0; 3.0 ] else [ 0.; 0.5; 1.0; 2.0; 3.0; 4.0 ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "E3 workload, varying prediction horizon (median of %d seed(s))"
         (List.length seeds))
    ~header:[ "horizon"; "join depth"; "rejoin depth"; "forks" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: model staleness ablation                                         *)
(* ------------------------------------------------------------------ *)

let a2 () =
  section "A2  Ablation: checkpoint staleness vs steering quality (paper S3.3.2)";
  let base = Experiments.Steering_exp.run ~with_runtime:false () in
  let rows =
    List.map
      (fun delay ->
        let o = Experiments.Steering_exp.run ~with_runtime:true ~checkpoint_delay:delay () in
        let prevented =
          base.Experiments.Steering_exp.violations - o.Experiments.Steering_exp.violations
        in
        [
          Printf.sprintf "%.2fs" delay;
          Metrics.Report.fint o.Experiments.Steering_exp.violations;
          Printf.sprintf "%d/%d" (max 0 prevented) base.Experiments.Steering_exp.violations;
          Metrics.Report.fint o.Experiments.Steering_exp.filtered;
        ])
      (if fast then [ 0.05; 0.25 ] else [ 0.01; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf
         "lease race (un-steered baseline: %d violations); message flight time 0.3s"
         base.Experiments.Steering_exp.violations)
    ~header:[ "staleness"; "violations"; "prevented"; "filtered" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3: cached fast path vs full lookahead                               *)
(* ------------------------------------------------------------------ *)

let a3 () =
  section "A3  Ablation: learned fast path vs full lookahead (paper S3.4)";
  let rows =
    List.map
      (fun policy ->
        let t0 = Unix.gettimeofday () in
        let o =
          Experiments.Gossip_exp.run ~seed:(List.hd seeds)
            ~waves:(if fast then 3 else 5)
            ~scenario:Experiments.Gossip_exp.Slow_stub policy
        in
        let wall = Unix.gettimeofday () -. t0 in
        [
          Experiments.Gossip_exp.policy_name policy;
          Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
          Metrics.Report.ffloat wall;
          (match o.Experiments.Gossip_exp.cache with
          | Some (hits, misses) -> Printf.sprintf "%d/%d" hits (hits + misses)
          | None -> "-");
        ])
      [
        Experiments.Gossip_exp.Random_peer;
        Experiments.Gossip_exp.Bandit;
        Experiments.Gossip_exp.Crystalball;
        Experiments.Gossip_exp.Hybrid;
      ]
  in
  (* The offline playbook: training cost paid before deployment. *)
  let playbook_row =
    let t0 = Unix.gettimeofday () in
    let o, contexts, forks =
      Experiments.Gossip_exp.run_playbook ~seed:(List.hd seeds)
        ~waves:(if fast then 3 else 5)
        ~episodes:(if fast then 1 else 2)
        ~scenario:Experiments.Gossip_exp.Slow_stub ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    [
      Experiments.Gossip_exp.policy_name o.Experiments.Gossip_exp.policy;
      Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
      Metrics.Report.ffloat wall;
      Printf.sprintf "%d ctx/%d forks offline" contexts forks;
    ]
  in
  Metrics.Report.print
    ~title:"gossip slow-stub: decision quality vs decision cost (wall-clock of whole run)"
    ~header:[ "resolver"; "mean coverage (s)"; "wall (s)"; "cache hits" ]
    (rows @ [ playbook_row ])

(* ------------------------------------------------------------------ *)
(* A5: value of information                                             *)
(* ------------------------------------------------------------------ *)

let a5 () =
  section "A5  Ablation: lookahead knowledge scope (paper S3.3.2 'lack of global information')";
  let median xs =
    let sorted = List.sort Int.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let rows =
    List.map
      (fun hops ->
        let runs = List.map (fun seed -> Experiments.Randtree_exp.run_scoped ~seed ~hops ()) seeds in
        [
          (match hops with None -> "global" | Some h -> Printf.sprintf "%d hops" h);
          Metrics.Report.fint (median (List.map fst runs));
          Metrics.Report.fint (median (List.map snd runs));
        ])
      (if fast then [ Some 1; None ] else [ Some 1; Some 2; Some 4; None ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf
         "E3 workload; prediction objectives see only the deciding node's h-hop tree neighbourhood (median of %d seed(s))"
         (List.length seeds))
    ~header:[ "knowledge"; "join depth"; "rejoin depth" ]
    rows

(* ------------------------------------------------------------------ *)
(* A4: checkpoint overhead                                              *)
(* ------------------------------------------------------------------ *)

let a4 () =
  section "A4  Ablation: checkpoint traffic vs application throughput (paper S3.3.2)";
  let deadline = if fast then 60. else 120. in
  let base =
    Experiments.Overhead_exp.run ~seed:(List.hd seeds) ~deadline ~checkpoint_period:None ()
  in
  let rows =
    [
      "no runtime";
      Metrics.Report.ffloat ~decimals:1 base.Experiments.Overhead_exp.mean_completion_s;
      Metrics.Report.ffloat ~decimals:1 base.Experiments.Overhead_exp.max_completion_s;
      "0";
      "0";
    ]
    :: List.map
         (fun period ->
           let o =
             Experiments.Overhead_exp.run ~seed:(List.hd seeds) ~deadline
               ~checkpoint_period:(Some period) ()
           in
           [
             Printf.sprintf "period %.2fs" period;
             Metrics.Report.ffloat ~decimals:1 o.Experiments.Overhead_exp.mean_completion_s;
             Metrics.Report.ffloat ~decimals:1 o.Experiments.Overhead_exp.max_completion_s;
             Metrics.Report.fint o.Experiments.Overhead_exp.checkpoints;
             Printf.sprintf "%d KB" (o.Experiments.Overhead_exp.checkpoint_bytes / 1024);
           ])
         (if fast then [ 1.0; 0.1 ] else [ 5.0; 1.0; 0.5; 0.2; 0.1; 0.05 ])
  in
  Metrics.Report.print
    ~title:
      "choked-seed swarm with global-knowledge checkpointing; serialized state charged to access links"
    ~header:[ "collection"; "mean done (s)"; "max done (s)"; "checkpoints"; "bytes shipped" ]
    rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let ns_per_run test =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second (if fast then 0.2 else 0.5)) () in
  let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> (name, Float.nan) :: acc)
    analyzed []

(* One Bechamel test per core runtime mechanism; each prints ns/op. *)
let micro () =
  section "Micro-benchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let heap_test =
    Test.make ~name:"heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Dsim.Heap.create ~cmp:Int.compare in
           for i = 0 to 99 do
             Dsim.Heap.push h (i * 7919 mod 100)
           done;
           while not (Dsim.Heap.is_empty h) do
             ignore (Dsim.Heap.pop h)
           done))
  in
  let rng = Dsim.Rng.create 1 in
  let rng_test =
    Test.make ~name:"rng bits64" (Staged.stage (fun () -> ignore (Dsim.Rng.bits64 rng)))
  in
  let choice =
    Core.Choice.of_values ~label:"bench"
      ~feature:(fun v -> [ ("v", float_of_int v) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let resolver_test name r =
    Test.make ~name:("resolve " ^ name)
      (Staged.stage (fun () -> ignore (Core.Resolver.apply r rng choice ~node:0 ~occurrence:0)))
  in
  let bandit = Core.Bandit.create () in
  let netmodel =
    let m = Net.Netmodel.create () in
    Net.Netmodel.observe_latency m ~src:0 ~dst:1 Dsim.Vtime.zero 0.01;
    m
  in
  let netmodel_test =
    Test.make ~name:"netmodel predict"
      (Staged.stage (fun () ->
           ignore
             (Net.Netmodel.predict_transfer_time netmodel ~src:0 ~dst:1
                ~now:(Dsim.Vtime.of_seconds 1.) ~bytes:512)))
  in
  let tests =
    [
      heap_test;
      rng_test;
      resolver_test "random" Core.Resolver.random;
      resolver_test "greedy" (Core.Resolver.greedy ~feature:"v" ());
      resolver_test "bandit" (Core.Bandit.to_resolver bandit);
      netmodel_test;
    ]
  in
  List.iter
    (fun t ->
      List.iter
        (fun (name, ns) -> Printf.printf "  %-24s %12.1f ns/op\n" name ns)
        (ns_per_run t))
    tests

(* ------------------------------------------------------------------ *)
(* EX: the exploration engine                                           *)
(* ------------------------------------------------------------------ *)

(* Worlds/second of consequence prediction: the retired digest engine
   (kept as Mc.Explorer_ref, the differential-test oracle) against the
   fingerprinted worklist engine, on snapshots frozen out of live paxos
   and randtree runs at the steering defaults (depth 3, max_worlds
   5000). Also times a full steering round (base explore plus one
   re-explore per candidate veto) both cold and with the runtime's
   persistent transposition cache. Results go to stdout and to
   BENCH_explorer.json in the working directory. *)

type ex_measure = {
  worlds_per_run : int;
  ms_per_run : float;
  worlds_per_sec : float;
}

type ex_row = {
  scenario : string;
  ex_depth : int;
  ex_max_worlds : int;
  ex_drops : bool;
  before : ex_measure;
  after : ex_measure;
  after_par : ex_measure;
  par_domains : int;
  steer_before_ms : float;
  steer_after_ms : float;
  steer_warm_ms : float;
  deduped : int;
  cached_warm : int;
  collisions : int;
}

module Ex_bench (App : Proto.App_intf.APP) = struct
  module Ex = Mc.Explorer.Make (App)
  module Ref = Mc.Explorer_ref.Make (App)
  module St = Mc.Steering.Make (App)

  let ref_world_of (w : Ex.world) : Ref.world =
    { Ref.states = w.states; pending = w.pending; timers = w.timers }

  (* Repeat [f] until [min_time] wall seconds elapse (after one warm-up
     run); milliseconds per run. *)
  let time_ms ~min_time f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    let runs = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < min_time do
      ignore (f ());
      incr runs;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed *. 1000. /. float_of_int !runs

  (* The steering decision procedure run verbatim over the reference
     explorer: base explore, then one re-explore per candidate veto —
     what a pre-rewrite steering round cost. *)
  let ref_steer_round ?include_drops ~max_worlds ~depth (w : Ref.world) =
    let explore w = Ref.explore ?include_drops ~max_worlds ~depth w in
    let pset (r : Ref.result) =
      List.sort_uniq String.compare
        (List.map (fun (v : Ref.violation) -> v.property) r.violations)
    in
    let base = explore w in
    match base.Ref.violations with
    | [] -> ()
    | _ :: _ ->
        let doomed = pset base in
        let candidates =
          List.filter_map
            (function
              | Ref.Deliver_step { src; dst; kind } -> Some (src, dst, kind)
              | Ref.Drop_step _ | Ref.Timer_step _ | Ref.Generic_step _ -> None)
            (Ref.first_steps_to_violation base)
        in
        List.iter
          (fun (src, dst, kind) ->
            let dropped = ref false in
            let steered =
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
            ignore (List.for_all (fun p -> List.mem p doomed) (pset (explore steered))))
          candidates

  let run ~scenario ?(include_drops = false) ~depth ~max_worlds (w : Ex.world) =
    let min_time = if fast then 0.2 else 1.0 in
    let refw = ref_world_of w in
    (* Worlds-per-run may legitimately differ between engines in drop
       mode (the worklist search covers length-divergent paths the
       bounded DFS pruned; see DESIGN.md), so each engine's throughput
       is computed against its own count. *)
    let r_old = Ref.explore ~include_drops ~max_worlds ~depth refw in
    let r_new = Ex.explore ~include_drops ~max_worlds ~depth w in
    let measure worlds ms =
      { worlds_per_run = worlds; ms_per_run = ms; worlds_per_sec = float_of_int worlds /. ms *. 1000. }
    in
    let ms_old = time_ms ~min_time (fun () -> Ref.explore ~include_drops ~max_worlds ~depth refw) in
    let ms_new = time_ms ~min_time (fun () -> Ex.explore ~include_drops ~max_worlds ~depth w) in
    let par_domains = max 2 (min 8 (Domain.recommended_domain_count ())) in
    (* One persistent pool across every timed run — the deployment
       shape (Crystal spawns its pool once per attach), and the whole
       point of the pool: domain spawn/join never lands in the timed
       region. *)
    let pool = Core.Pool.create ~domains:par_domains in
    let ms_par =
      Fun.protect
        ~finally:(fun () -> Core.Pool.shutdown pool)
        (fun () ->
          time_ms ~min_time (fun () -> Ex.explore ~include_drops ~pool ~max_worlds ~depth w))
    in
    let steer_before_ms =
      time_ms ~min_time (fun () -> ref_steer_round ~include_drops ~max_worlds ~depth refw)
    in
    let steer_after_ms =
      time_ms ~min_time (fun () -> St.decide ~include_drops ~max_worlds ~depth w)
    in
    let cache = St.Ex.create_cache () in
    let steer_warm_ms =
      time_ms ~min_time (fun () -> St.decide ~include_drops ~cache ~max_worlds ~depth w)
    in
    let r_warm = Ex.explore ~include_drops ~cache ~max_worlds ~depth w in
    {
      scenario;
      ex_depth = depth;
      ex_max_worlds = max_worlds;
      ex_drops = include_drops;
      before = measure r_old.Ref.worlds_explored ms_old;
      after = measure r_new.Ex.worlds_explored ms_new;
      after_par = measure r_new.Ex.worlds_explored ms_par;
      par_domains;
      steer_before_ms;
      steer_after_ms;
      steer_warm_ms;
      deduped = r_new.Ex.worlds_deduped;
      cached_warm = r_warm.Ex.outcomes_cached;
      collisions = r_new.Ex.fingerprint_collisions;
    }
end

module Ex_paxos_params = struct
  let population = 3
  let client_period = 0. (* the bench injects commands itself *)
  let retry_timeout = 1.0
end

module Ex_papp = Apps.Paxos.Make (Ex_paxos_params)
module Ex_pe = Engine.Sim.Make (Ex_papp)
module Ex_pb = Ex_bench (Ex_papp)

let ex_paxos_world ~seed =
  let topology =
    Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Ex_pe.create ~seed ~jitter:0. ~topology () in
  Ex_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 2 do
    Ex_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  Ex_pe.run_for eng 0.05;
  let submit origin seq =
    Ex_pe.inject eng
      ~src:(Proto.Node_id.of_int origin)
      ~dst:(Proto.Node_id.of_int 0)
      (Apps.Paxos.Submit { cmd = { Apps.Paxos.origin; seq; born = 0. } })
  in
  submit 1 0;
  submit 2 1;
  Ex_pe.run_for eng 0.015;
  Ex_pb.Ex.world_of_view (Ex_pe.global_view eng)

module Ex_rapp = Apps.Randtree_choice.Default
module Ex_re = Engine.Sim.Make (Ex_rapp)
module Ex_rb = Ex_bench (Ex_rapp)

let ex_randtree_world ~seed =
  let n = 6 in
  let topology =
    Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Ex_re.create ~seed ~jitter:0. ~topology () in
  for i = 0 to n - 1 do
    Ex_re.spawn eng ~after:(0.05 *. float_of_int i) (Proto.Node_id.of_int i)
  done;
  (* Freeze mid-join so the snapshot still has joins in flight. *)
  Ex_re.run_for eng 0.26;
  Ex_rb.Ex.world_of_view (Ex_re.global_view eng)

let ex_json_path = "BENCH_explorer.json"

(* Pooled throughput measures the pool only with two or more cores: on
   one core every minor GC synchronises the idle worker domain over the
   single CPU, so the figure is noise, not a measurement. *)
let ex_multicore = Domain.recommended_domain_count () >= 2

let ex_emit_json rows =
  let oc = open_out ex_json_path in
  let p fmt = Printf.fprintf oc fmt in
  let measure_json label (m : ex_measure) =
    Printf.sprintf
      "{ \"engine\": %S, \"worlds_per_run\": %d, \"ms_per_run\": %.4f, \"worlds_per_sec\": %.1f }"
      label m.worlds_per_run m.ms_per_run m.worlds_per_sec
  in
  p "{\n";
  p "  \"bench\": \"explorer-engine\",\n";
  p "  \"units\": { \"throughput\": \"worlds/second\", \"latency\": \"ms/steering round\" },\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  if not ex_multicore then
    p "  \"parallel_note\": %S,\n"
      "single-core host: after_parallel and parallel_speedup are not measurements here";
  p "  \"scenarios\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": %S,\n" r.scenario;
      p "      \"config\": { \"depth\": %d, \"max_worlds\": %d, \"include_drops\": %b },\n"
        r.ex_depth r.ex_max_worlds r.ex_drops;
      p "      \"explore\": {\n";
      p "        \"before\": %s,\n" (measure_json "digest-dfs" r.before);
      p "        \"after\": %s,\n" (measure_json "fingerprint-worklist" r.after);
      let after_parallel, parallel_speedup =
        if ex_multicore then
          ( (let s = measure_json "fingerprint-worklist" r.after_par in
             Printf.sprintf "{ \"domains\": %d, %s }" r.par_domains
               (String.sub s 2 (String.length s - 4))),
            Printf.sprintf "%.2f" (r.after_par.worlds_per_sec /. r.after.worlds_per_sec) )
        else ("null", "null")
      in
      p "        \"after_parallel\": %s,\n" after_parallel;
      p "        \"speedup\": %.2f,\n" (r.after.worlds_per_sec /. r.before.worlds_per_sec);
      p "        \"parallel_speedup\": %s\n" parallel_speedup;
      p "      },\n";
      p "      \"steering_round\": {\n";
      p "        \"before_ms\": %.4f,\n" r.steer_before_ms;
      p "        \"after_ms\": %.4f,\n" r.steer_after_ms;
      p "        \"after_warm_cache_ms\": %.4f,\n" r.steer_warm_ms;
      p "        \"speedup\": %.2f\n" (r.steer_before_ms /. r.steer_after_ms);
      p "      },\n";
      p "      \"counters\": { \"worlds_deduped\": %d, \"outcomes_cached_warm\": %d, \"fingerprint_collisions\": %d }\n"
        r.deduped r.cached_warm r.collisions;
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc

let ex () =
  section "EX  Exploration engine: digest DFS vs fingerprinted worklist (steering defaults)";
  let depth = 3 and max_worlds = 5_000 in
  let rows =
    [
      Ex_pb.run ~scenario:"paxos" ~depth ~max_worlds (ex_paxos_world ~seed:3);
      Ex_pb.run ~scenario:"paxos-drops" ~include_drops:true ~depth ~max_worlds
        (ex_paxos_world ~seed:3);
      Ex_rb.run ~scenario:"randtree" ~depth ~max_worlds (ex_randtree_world ~seed:5);
    ]
  in
  Metrics.Report.print ~title:"consequence-prediction throughput (same worlds both engines)"
    ~header:[ "scenario"; "worlds"; "before w/s"; "after w/s"; "speedup"; "domains w/s" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Printf.sprintf "%d/%d" r.before.worlds_per_run r.after.worlds_per_run;
           Printf.sprintf "%.0f" r.before.worlds_per_sec;
           Printf.sprintf "%.0f" r.after.worlds_per_sec;
           Printf.sprintf "%.1fx" (r.after.worlds_per_sec /. r.before.worlds_per_sec);
           (if ex_multicore then Printf.sprintf "%.0f (%d)" r.after_par.worlds_per_sec r.par_domains
            else "n/a (1 core)");
         ])
       rows);
  Metrics.Report.print ~title:"steering-round latency (base explore + per-veto re-explores)"
    ~header:[ "scenario"; "before (ms)"; "after (ms)"; "warm cache (ms)"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Printf.sprintf "%.3f" r.steer_before_ms;
           Printf.sprintf "%.3f" r.steer_after_ms;
           Printf.sprintf "%.3f" r.steer_warm_ms;
           Printf.sprintf "%.1fx" (r.steer_before_ms /. r.steer_after_ms);
         ])
       rows);
  List.iter
    (fun r ->
      Printf.printf "  %-12s deduped %d, warm-cache outcomes %d, fp collisions %d\n" r.scenario
        r.deduped r.cached_warm r.collisions)
    rows;
  ex_emit_json rows;
  Printf.printf "  wrote %s\n" ex_json_path;
  (* Regression guard: a parallel explore must never be slower than the
     sequential one (0.95 leaves room for timer noise). Only meaningful
     with at least two real cores: on a single-core host every minor GC
     must synchronise the idle worker domain's backup thread over the
     one CPU, which alone costs 2-10x on this allocation-heavy loop —
     a healthy pool and a broken one are indistinguishable there. *)
  let cores = Domain.recommended_domain_count () in
  if not ex_multicore then
    Printf.printf
      "  parallel guard skipped: single-core host (parallel throughput is GC-sync noise here)\n"
  else begin
    let tolerance = 0.95 in
    let failures =
      List.filter_map
        (fun r ->
          let ratio = r.after_par.worlds_per_sec /. r.after.worlds_per_sec in
          if ratio < tolerance then Some (r.scenario, ratio) else None)
        rows
    in
    if failures <> [] then begin
      List.iter
        (fun (scenario, ratio) ->
          Printf.eprintf
            "PARALLEL REGRESSION: scenario %S runs at %.2fx sequential throughput with %d \
             domains (tolerance %.2f on %d cores) — the domain pool is slower than one thread\n"
            scenario ratio
            (max 2 (min 8 cores))
            tolerance cores)
        failures;
      exit 1
    end
  end

(* ---------- OBS: observability layer (trace gate + metrics overhead) ----------

   Two questions, answered against the same 5-replica Paxos engine the
   obs subcommand instruments: (1) does the Trace min-level gate make
   below-threshold [logf] sites free of formatting cost, and (2) does
   attaching the metrics/span sink keep the event-loop slowdown inside
   the 5% budget? Results go to stdout and BENCH_obs.json. *)

module Obs_papp = Apps.Paxos.Make (struct
  let population = 5
  let client_period = 0.25
  let retry_timeout = 2.0
end)

module Obs_pe = Engine.Sim.Make (Obs_papp)

(* Nanoseconds per [logf] call at a Debug site: with the trace at Debug
   every call formats into the ring; at Info the gate must skip the
   formatting entirely, so the gated cost is the counter bump alone. *)
let obs_logf_ns level =
  let n = if fast then 200_000 else 1_000_000 in
  let tr = Dsim.Trace.create ~capacity:64 ~min_level:level () in
  let payload = "0123456789abcdef" in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Dsim.Trace.logf tr Dsim.Vtime.zero Dsim.Trace.Debug ~component:"bench"
      "event %d on node %d payload %s" i (i mod 7) payload
  done;
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n in
  (n, ns)

(* Engine events per wall second over [duration] virtual seconds of
   sustained Paxos traffic, at the given trace level, with or without
   the observability sink attached. *)
let obs_paxos_run ~level ~with_obs ~duration ~seed =
  let topology =
    Net.Topology.uniform ~n:5
      (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Obs_pe.create ~seed ~jitter:0. ~topology () in
  Dsim.Trace.set_min_level (Obs_pe.trace eng) level;
  if with_obs then Obs_pe.set_obs eng (Some (Obs.Sink.create ()));
  Obs_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Obs_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  let t0 = Unix.gettimeofday () in
  Obs_pe.run_for eng duration;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int (Obs_pe.stats eng).Obs_pe.events_processed /. wall

(* The configs differ by a few percent at most, well inside single-run
   noise, and the process speeds up over its first runs (heap growth,
   code warm-up), so position in the schedule is itself a bias.  Each
   rep measures every config back to back with the order rotated, so
   over [reps] cycles every config occupies every slot equally; a full
   unrecorded cycle first absorbs the cold start, and each config
   reports its median. *)
let obs_paxos_sweep ~configs ~duration ~reps =
  let rotate k l =
    let n = List.length l in
    List.init n (fun i -> List.nth l ((i + k) mod n))
  in
  List.iter
    (fun (_, level, with_obs) -> ignore (obs_paxos_run ~level ~with_obs ~duration ~seed:7))
    configs;
  let samples = List.map (fun (name, _, _) -> (name, ref [])) configs in
  for r = 0 to reps - 1 do
    List.iter
      (fun (name, level, with_obs) ->
        let ev = obs_paxos_run ~level ~with_obs ~duration ~seed:(7 + r) in
        let acc = List.assoc name samples in
        acc := ev :: !acc)
      (rotate r configs)
  done;
  List.map
    (fun (name, acc) ->
      let sorted = List.sort compare !acc in
      (name, List.nth sorted (List.length sorted / 2)))
    samples

let obs_json_path = "BENCH_obs.json"

let obs_emit_json ~calls ~debug_ns ~gated_ns ~ev_debug ~ev_info ~ev_obs =
  let oc = open_out obs_json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"observability\",\n";
  p "  \"units\": { \"micro\": \"ns/logf call\", \"macro\": \"engine events/second\" },\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"trace_gate\": {\n";
  p "    \"micro\": { \"calls\": %d, \"debug_ns_per_call\": %.1f, \"gated_ns_per_call\": %.1f, \"speedup\": %.1f },\n"
    calls debug_ns gated_ns
    (if gated_ns > 0. then debug_ns /. gated_ns else 0.);
  p "    \"paxos\": { \"debug_events_per_sec\": %.0f, \"info_events_per_sec\": %.0f, \"gate_gain_pct\": %.2f }\n"
    ev_debug ev_info
    ((ev_info -. ev_debug) /. ev_debug *. 100.);
  p "  },\n";
  p "  \"obs_overhead\": { \"base_events_per_sec\": %.0f, \"obs_events_per_sec\": %.0f, \"overhead_pct\": %.2f, \"budget_pct\": 5.0 }\n"
    ev_info ev_obs
    ((ev_info -. ev_obs) /. ev_info *. 100.);
  p "}\n";
  close_out oc

let obs_bench () =
  section "OBS Observability: trace level gate + metrics/span sink overhead";
  let calls, debug_ns = obs_logf_ns Dsim.Trace.Debug in
  let _, gated_ns = obs_logf_ns Dsim.Trace.Info in
  Printf.printf
    "  logf at a Debug site (%d calls): %.1f ns formatted, %.1f ns gated (%.1fx)\n" calls
    debug_ns gated_ns
    (if gated_ns > 0. then debug_ns /. gated_ns else 0.);
  let duration = if fast then 20. else 60. in
  let reps = if fast then 3 else 5 in
  let medians =
    obs_paxos_sweep ~duration ~reps
      ~configs:
        [
          ("debug", Dsim.Trace.Debug, false);
          ("info", Dsim.Trace.Info, false);
          ("info+obs", Dsim.Trace.Info, true);
        ]
  in
  let ev_debug = List.assoc "debug" medians in
  let ev_info = List.assoc "info" medians in
  let ev_obs = List.assoc "info+obs" medians in
  let overhead_pct = (ev_info -. ev_obs) /. ev_info *. 100. in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "paxos engine throughput, %.0fs virtual, median of %d" duration reps)
    ~header:[ "config"; "events/s"; "vs info" ]
    [
      [ "trace=debug"; Printf.sprintf "%.0f" ev_debug;
        Printf.sprintf "%+.1f%%" ((ev_debug -. ev_info) /. ev_info *. 100.) ];
      [ "trace=info (gated)"; Printf.sprintf "%.0f" ev_info; "baseline" ];
      [ "trace=info + obs sink"; Printf.sprintf "%.0f" ev_obs;
        Printf.sprintf "%+.1f%%" (-.overhead_pct) ];
    ];
  Printf.printf "  obs sink overhead: %.2f%% (budget 5%%)%s\n" overhead_pct
    (if overhead_pct < 5. then "" else "  ** OVER BUDGET **");
  obs_emit_json ~calls ~debug_ns ~gated_ns ~ev_debug ~ev_info ~ev_obs;
  Printf.printf "  wrote %s\n" obs_json_path

(* ---------- FD: failure detection + reliable delivery overhead ----------

   The phi-accrual detector is fed passively on every delivery, so its
   cost rides the engine's hottest path. One question with a hard
   budget: does leaving the detector on (the default) keep the
   event-loop slowdown inside 5% versus switching it off?  The reliable
   layer is opt-in and schedules real extra work (acks, retry timers),
   so its figure is informational, not budgeted. Same 5-replica Paxos
   engine, same rotation/median discipline as the obs bench.  Results
   go to stdout and BENCH_fd.json. *)

let fd_paxos_run ~fd ~reliable ~duration ~seed =
  let topology =
    Net.Topology.uniform ~n:5
      (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Obs_pe.create ~seed ~jitter:0. ~topology () in
  Dsim.Trace.set_min_level (Obs_pe.trace eng) Dsim.Trace.Info;
  Obs_pe.set_fd_enabled eng fd;
  if reliable then Obs_pe.enable_reliable eng;
  Obs_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Obs_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  let t0 = Unix.gettimeofday () in
  Obs_pe.run_for eng duration;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int (Obs_pe.stats eng).Obs_pe.events_processed /. wall

(* Same schedule-rotation reasoning as [obs_paxos_sweep]: the configs
   sit within a few percent of each other, so each rep measures every
   config back to back in rotated order and reports the median. *)
let fd_paxos_sweep ~configs ~duration ~reps =
  let rotate k l =
    let n = List.length l in
    List.init n (fun i -> List.nth l ((i + k) mod n))
  in
  List.iter
    (fun (_, fd, reliable) -> ignore (fd_paxos_run ~fd ~reliable ~duration ~seed:7))
    configs;
  let samples = List.map (fun (name, _, _) -> (name, ref [])) configs in
  for r = 0 to reps - 1 do
    List.iter
      (fun (name, fd, reliable) ->
        let ev = fd_paxos_run ~fd ~reliable ~duration ~seed:(7 + r) in
        let acc = List.assoc name samples in
        acc := ev :: !acc)
      (rotate r configs)
  done;
  List.map
    (fun (name, acc) ->
      let sorted = List.sort compare !acc in
      (name, List.nth sorted (List.length sorted / 2)))
    samples

let fd_json_path = "BENCH_fd.json"

let fd_emit_json ~ev_base ~ev_fd ~ev_rel =
  let oc = open_out fd_json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"failure_detector\",\n";
  p "  \"units\": \"engine events/second\",\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"fd_overhead\": { \"base_events_per_sec\": %.0f, \"fd_events_per_sec\": %.0f, \"overhead_pct\": %.2f, \"budget_pct\": 5.0 },\n"
    ev_base ev_fd
    ((ev_base -. ev_fd) /. ev_base *. 100.);
  p "  \"reliable_informational\": { \"events_per_sec\": %.0f, \"vs_base_pct\": %.2f }\n"
    ev_rel
    ((ev_base -. ev_rel) /. ev_base *. 100.);
  p "}\n";
  close_out oc

let fd_bench () =
  section "FD  Failure detection: passive phi-accrual feed overhead";
  let duration = if fast then 20. else 60. in
  let reps = if fast then 3 else 5 in
  let medians =
    fd_paxos_sweep ~duration ~reps
      ~configs:
        [
          ("base", false, false);
          ("fd", true, false);
          ("fd+reliable", true, true);
        ]
  in
  let ev_base = List.assoc "base" medians in
  let ev_fd = List.assoc "fd" medians in
  let ev_rel = List.assoc "fd+reliable" medians in
  let overhead_pct = (ev_base -. ev_fd) /. ev_base *. 100. in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "paxos engine throughput, %.0fs virtual, median of %d" duration reps)
    ~header:[ "config"; "events/s"; "vs base" ]
    [
      [ "fd off"; Printf.sprintf "%.0f" ev_base; "baseline" ];
      [ "fd on (default)"; Printf.sprintf "%.0f" ev_fd;
        Printf.sprintf "%+.1f%%" (-.overhead_pct) ];
      [ "fd + reliable"; Printf.sprintf "%.0f" ev_rel;
        Printf.sprintf "%+.1f%%" (-.((ev_base -. ev_rel) /. ev_base *. 100.)) ];
    ];
  Printf.printf "  fd feed overhead: %.2f%% (budget 5%%)%s\n" overhead_pct
    (if overhead_pct < 5. then "" else "  ** OVER BUDGET **");
  Printf.printf "  reliable layer (informational, schedules real ack/retry work): %+.1f%%\n"
    (-.((ev_base -. ev_rel) /. ev_base *. 100.));
  fd_emit_json ~ev_base ~ev_fd ~ev_rel;
  Printf.printf "  wrote %s\n" fd_json_path

(* ---------- OV: overload robustness (bounded queues + shedding) ----------

   Two claims with teeth, against the same 5-replica Paxos engine as
   the obs/fd benches. (1) Budgeted: the overload layer's hot-path
   hooks — an option check per delivery when unconfigured, ticketed
   queue bookkeeping when bounded mailboxes are installed but idle —
   keep the event-loop slowdown inside 5%. (2) Directional: under a
   genuine injection burst, bounded mailboxes with priority shedding
   keep the p99 delivery latency of real traffic at a fraction of the
   unbounded configuration's, where the backlog (and the queue delay
   every later arrival pays) grows without limit for as long as the
   burst lasts. Results go to stdout and BENCH_overload.json. *)

let ov_config ~bounded =
  {
    Obs_pe.default_overload with
    Obs_pe.mailbox_capacity = (if bounded then 64 else 0);
    shed = Obs_pe.By_priority;
    service_time = 5e-4;
  }

let ov_engine ~install ~seed =
  let topology =
    Net.Topology.uniform ~n:5
      (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Obs_pe.create ~seed ~jitter:0. ~topology () in
  Dsim.Trace.set_min_level (Obs_pe.trace eng) Dsim.Trace.Info;
  (* The budgeted quantity is the *disabled* path: layer installed,
     every knob off — what every run that never asked for overload
     robustness pays. *)
  if install then Obs_pe.set_overload eng ~config:Obs_pe.default_overload;
  Obs_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Obs_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  eng

(* The two configs sit within noise of each other, and wall-clock
   speed on a shared machine drifts more over a few seconds than the
   budget we are asserting — so medians of whole-run throughputs are
   not enough. Each rep instead advances a base engine and an
   installed engine side by side in 1-virtual-second slices
   (alternating which goes first), so machine drift lands on both
   configs almost simultaneously; the rep contributes one idle/base
   throughput ratio, and the budget is judged against the median
   ratio. *)
let ov_overhead_rep ~duration ~seed =
  let e_base = ov_engine ~install:false ~seed
  and e_idle = ov_engine ~install:true ~seed in
  let wall_base = ref 0.
  and wall_idle = ref 0. in
  let timed wall eng =
    let t0 = Unix.gettimeofday () in
    Obs_pe.run_for eng 1.;
    wall := !wall +. (Unix.gettimeofday () -. t0)
  in
  for slice = 0 to int_of_float duration - 1 do
    if slice mod 2 = 0 then begin
      timed wall_base e_base;
      timed wall_idle e_idle
    end
    else begin
      timed wall_idle e_idle;
      timed wall_base e_base
    end
  done;
  let evps wall eng = float_of_int (Obs_pe.stats eng).Obs_pe.events_processed /. !wall in
  (evps wall_base e_base, evps wall_idle e_idle)

let ov_overhead_sweep ~duration ~reps =
  ignore (ov_overhead_rep ~duration:2. ~seed:7) (* warmup *);
  let base = ref [] and idle = ref [] and ratios = ref [] in
  for r = 0 to reps - 1 do
    let b, i = ov_overhead_rep ~duration ~seed:(7 + r) in
    base := b :: !base;
    idle := i :: !idle;
    ratios := (i /. b) :: !ratios
  done;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  (median !base, median !idle, (1. -. median !ratios) *. 100.)

(* The burst comparison is in virtual time — fully deterministic, no
   rotation needed. A 2000/s chaff burst hits node 0 for two virtual
   seconds; with [service_time] 0.5 ms per queued message the drain
   rate cannot keep up, so the unbounded config's queue (and the delay
   every later real message pays behind it) grows for the whole burst,
   while the bounded config sheds chaff and keeps the backlog at 64. *)
let ov_burst_run ~bounded ~seed =
  let topology =
    Net.Topology.uniform ~n:5
      (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Obs_pe.create ~seed ~jitter:0. ~topology () in
  Dsim.Trace.set_min_level (Obs_pe.trace eng) Dsim.Trace.Warn;
  let sink = Obs.Sink.create () in
  Obs_pe.set_obs eng (Some sink);
  Obs_pe.set_overload eng ~config:(ov_config ~bounded);
  Obs_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Obs_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  Obs_pe.run_for eng 2.;
  Obs_pe.overload eng ~rate:2000. (Proto.Node_id.of_int 0);
  Obs_pe.run_for eng 2.;
  Obs_pe.heal_overload eng (Proto.Node_id.of_int 0);
  Obs_pe.run_for eng 4.;
  (* Worst per-link p99 of real deliveries (chaff is never observed by
     the sink): the metric the burst is supposed to protect. *)
  let p99 =
    List.fold_left
      (fun acc j ->
        match (Obs.Json.member "name" j, Obs.Json.member "p99" j) with
        | Some (Obs.Json.Str "engine_delivery_latency_ms"), Some (Obs.Json.Float p) ->
            Float.max acc p
        | _ -> acc)
      0.
      (Obs.Registry.to_json ~include_volatile:true sink.Obs.Sink.registry)
  in
  (p99, Obs_pe.stats eng)

let ov_json_path = "BENCH_overload.json"

let ov_emit_json ~ev_base ~ev_idle ~overhead_pct ~p99_bounded ~p99_unbounded ~sheds ~max_depth =
  let oc = open_out ov_json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"overload\",\n";
  p "  \"fast\": %b,\n" fast;
  p
    "  \"overload_overhead\": { \"base_events_per_sec\": %.0f, \"idle_events_per_sec\": %.0f, \
     \"overhead_pct\": %.2f, \"budget_pct\": 5.0 },\n"
    ev_base ev_idle overhead_pct;
  p
    "  \"burst_p99_ms\": { \"bounded\": %.2f, \"unbounded\": %.2f, \
     \"bounded_beats_unbounded\": %b },\n"
    p99_bounded p99_unbounded
    (p99_bounded < p99_unbounded);
  p "  \"bounded_burst\": { \"sheds\": %d, \"max_mailbox_depth\": %d }\n" sheds max_depth;
  p "}\n";
  close_out oc

let ov_bench () =
  section "OV  Overload robustness: layer overhead and shed-vs-no-shed p99";
  let duration = if fast then 20. else 60. in
  let reps = if fast then 5 else 9 in
  let ev_base, ev_idle, overhead_pct = ov_overhead_sweep ~duration ~reps in
  let p99_bounded, stats_bounded = ov_burst_run ~bounded:true ~seed:11 in
  let p99_unbounded, _ = ov_burst_run ~bounded:false ~seed:11 in
  let sheds =
    stats_bounded.Obs_pe.sheds_mailbox + stats_bounded.Obs_pe.sheds_link
    + stats_bounded.Obs_pe.sheds_admission + stats_bounded.Obs_pe.sheds_sojourn
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "paxos engine throughput, %.0fs virtual, median of %d paired ratios"
         duration reps)
    ~header:[ "config"; "events/s"; "vs base" ]
    [
      [ "overload off"; Printf.sprintf "%.0f" ev_base; "baseline" ];
      [ "installed, knobs off"; Printf.sprintf "%.0f" ev_idle;
        Printf.sprintf "%+.1f%%" (-.overhead_pct) ];
    ];
  Metrics.Report.print ~title:"p99 delivery latency under a 2000/s 2s burst at node 0"
    ~header:[ "config"; "p99 (ms)"; "sheds"; "max depth" ]
    [
      [ "bounded (64, by-priority)"; Printf.sprintf "%.1f" p99_bounded;
        Metrics.Report.fint sheds;
        Metrics.Report.fint stats_bounded.Obs_pe.max_mailbox_depth ];
      [ "unbounded"; Printf.sprintf "%.1f" p99_unbounded; "0"; "(unbounded)" ];
    ];
  Printf.printf "  overload layer overhead (installed, idle): %.2f%% (budget 5%%)%s\n"
    overhead_pct
    (if overhead_pct < 5. then "" else "  ** OVER BUDGET **");
  Printf.printf "  burst p99: bounded %.1f ms vs unbounded %.1f ms%s\n" p99_bounded
    p99_unbounded
    (if p99_bounded < p99_unbounded then "" else "  ** SHEDDING DID NOT HELP **");
  ov_emit_json ~ev_base ~ev_idle ~overhead_pct ~p99_bounded ~p99_unbounded ~sheds
    ~max_depth:stats_bounded.Obs_pe.max_mailbox_depth;
  Printf.printf "  wrote %s\n" ov_json_path

(* ---------- CLOCK: per-node clock layer overhead ----------

   The budgeted quantity is the instrumented-but-inert path: every node
   given an identity clock entry (rate 1, zero offset — created via
   [set_clock_rate ~rate:1.0], which stays in the table where a heal
   would delete it), so every timer schedule and [Ctx.now] read goes
   through the clock conversions while producing byte-identical
   behaviour. That is what a run that never injects skew pays once the
   table exists; with no table at all the layer is a single [None]
   check. Same paired-slice protocol as the overload bench: the two
   configs differ by well under machine drift over a few seconds, so
   each rep advances both engines in alternating 1-virtual-second
   slices and contributes one throughput ratio; the budget is judged
   against the median ratio. Results go to stdout and
   BENCH_clock.json. *)

let clock_engine ~instrument ~seed =
  let topology =
    Net.Topology.uniform ~n:5
      (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Obs_pe.create ~seed ~jitter:0. ~topology () in
  Dsim.Trace.set_min_level (Obs_pe.trace eng) Dsim.Trace.Info;
  Obs_pe.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Obs_pe.spawn eng (Proto.Node_id.of_int i)
  done;
  if instrument then
    for i = 0 to 4 do
      Obs_pe.set_clock_rate eng (Proto.Node_id.of_int i) ~rate:1.0
    done;
  eng

let clock_overhead_rep ~duration ~seed =
  let e_base = clock_engine ~instrument:false ~seed
  and e_inst = clock_engine ~instrument:true ~seed in
  let wall_base = ref 0.
  and wall_inst = ref 0. in
  let timed wall eng =
    let t0 = Unix.gettimeofday () in
    Obs_pe.run_for eng 1.;
    wall := !wall +. (Unix.gettimeofday () -. t0)
  in
  for slice = 0 to int_of_float duration - 1 do
    if slice mod 2 = 0 then begin
      timed wall_base e_base;
      timed wall_inst e_inst
    end
    else begin
      timed wall_inst e_inst;
      timed wall_base e_base
    end
  done;
  let evps wall eng = float_of_int (Obs_pe.stats eng).Obs_pe.events_processed /. !wall in
  (evps wall_base e_base, evps wall_inst e_inst)

let clock_overhead_sweep ~duration ~reps =
  ignore (clock_overhead_rep ~duration:2. ~seed:7) (* warmup *);
  let base = ref [] and inst = ref [] and ratios = ref [] in
  for r = 0 to reps - 1 do
    let b, i = clock_overhead_rep ~duration ~seed:(7 + r) in
    base := b :: !base;
    inst := i :: !inst;
    ratios := (i /. b) :: !ratios
  done;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  (median !base, median !inst, (1. -. median !ratios) *. 100.)

(* Deterministic skew sanity check (virtual time, no wall clock): the
   same seeded paxos run with one replica's clock 25% fast must stay
   byte-equal on delivery counts to a run where that replica's timers
   genuinely fire early — i.e. the drift run must differ from the sync
   run, while two identical drift runs agree. *)
let clock_drift_determinism () =
  let run drift seed =
    let eng = clock_engine ~instrument:false ~seed in
    if drift then Obs_pe.set_clock_rate eng (Proto.Node_id.of_int 0) ~rate:1.25;
    Obs_pe.run_for eng 10.;
    (Obs_pe.stats eng).Obs_pe.messages_delivered
  in
  let sync = run false 11 in
  let d1 = run true 11 and d2 = run true 11 in
  (sync, d1, d1 = d2)

let clock_json_path = "BENCH_clock.json"

let clock_emit_json ~ev_base ~ev_inst ~overhead_pct ~sync_dlv ~drift_dlv ~drift_deterministic =
  let oc = open_out clock_json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"clock\",\n";
  p "  \"fast\": %b,\n" fast;
  p
    "  \"clock_overhead\": { \"base_events_per_sec\": %.0f, \"instrumented_events_per_sec\": \
     %.0f, \"overhead_pct\": %.2f, \"budget_pct\": 5.0 },\n"
    ev_base ev_inst overhead_pct;
  p
    "  \"drift_determinism\": { \"sync_delivered\": %d, \"drift_delivered\": %d, \
     \"drift_changes_schedule\": %b, \"repeat_runs_agree\": %b }\n"
    sync_dlv drift_dlv (sync_dlv <> drift_dlv) drift_deterministic;
  p "}\n";
  close_out oc

let clock_bench () =
  section "CLK Per-node clocks: identity-entry overhead and drift determinism";
  let duration = if fast then 20. else 60. in
  let reps = if fast then 5 else 9 in
  let ev_base, ev_inst, overhead_pct = clock_overhead_sweep ~duration ~reps in
  let sync_dlv, drift_dlv, drift_deterministic = clock_drift_determinism () in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "paxos engine throughput, %.0fs virtual, median of %d paired ratios"
         duration reps)
    ~header:[ "config"; "events/s"; "vs base" ]
    [
      [ "no clock table"; Printf.sprintf "%.0f" ev_base; "baseline" ];
      [ "identity clocks, all nodes"; Printf.sprintf "%.0f" ev_inst;
        Printf.sprintf "%+.1f%%" (-.overhead_pct) ];
    ];
  Metrics.Report.print ~title:"10s seeded paxos run, replica 0 at rate x1.25"
    ~header:[ "config"; "delivered"; "note" ]
    [
      [ "all clocks sync"; Metrics.Report.fint sync_dlv; "baseline schedule" ];
      [ "replica 0 fast"; Metrics.Report.fint drift_dlv;
        (if sync_dlv <> drift_dlv then "schedule shifted" else "** DRIFT HAD NO EFFECT **") ];
    ];
  Printf.printf "  clock layer overhead (identity entries): %.2f%% (budget 5%%)%s\n"
    overhead_pct
    (if overhead_pct < 5. then "" else "  ** OVER BUDGET **");
  Printf.printf "  drift determinism: repeat runs %s\n"
    (if drift_deterministic then "agree" else "DISAGREE  ** NOT DETERMINISTIC **");
  clock_emit_json ~ev_base ~ev_inst ~overhead_pct ~sync_dlv ~drift_dlv ~drift_deterministic;
  Printf.printf "  wrote %s\n" clock_json_path

(* BYZ --- What does the byzantine-mutation layer cost a run that never
   mutates? The admission path runs on every delivered message whether
   or not a storm is on: [App.validate] (a [Some] for paxos) plus
   Netem's mutate-rate gate. The paired base is the same paxos app
   with the validator stripped — byte-identical protocol, [None]
   admission — so the ratio prices exactly what a byz-free run pays
   for the feature existing. Same paired-slice protocol as the clock
   bench; judged against the median ratio. Results go to stdout and
   BENCH_byz.json. *)

module Byz_papp_base = struct
  include Obs_papp

  let validate = None
end

module Byz_pe_base = Engine.Sim.Make (Byz_papp_base)

let byz_topology () =
  Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

let byz_overhead_rep ~duration ~seed =
  let e_base = Byz_pe_base.create ~seed ~jitter:0. ~topology:(byz_topology ()) () in
  let e_inst = Obs_pe.create ~seed ~jitter:0. ~topology:(byz_topology ()) () in
  Byz_pe_base.set_resolver e_base Apps.Paxos.self_resolver;
  Obs_pe.set_resolver e_inst Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    Byz_pe_base.spawn e_base (Proto.Node_id.of_int i);
    Obs_pe.spawn e_inst (Proto.Node_id.of_int i)
  done;
  let wall_base = ref 0. and wall_inst = ref 0. in
  let timed_base () =
    let t0 = Unix.gettimeofday () in
    Byz_pe_base.run_for e_base 1.;
    wall_base := !wall_base +. (Unix.gettimeofday () -. t0)
  in
  let timed_inst () =
    let t0 = Unix.gettimeofday () in
    Obs_pe.run_for e_inst 1.;
    wall_inst := !wall_inst +. (Unix.gettimeofday () -. t0)
  in
  for slice = 0 to int_of_float duration - 1 do
    if slice mod 2 = 0 then begin
      timed_base ();
      timed_inst ()
    end
    else begin
      timed_inst ();
      timed_base ()
    end
  done;
  ( float_of_int (Byz_pe_base.stats e_base).Byz_pe_base.events_processed /. !wall_base,
    float_of_int (Obs_pe.stats e_inst).Obs_pe.events_processed /. !wall_inst )

let byz_overhead_sweep ~duration ~reps =
  ignore (byz_overhead_rep ~duration:2. ~seed:7) (* warmup *);
  let base = ref [] and inst = ref [] and ratios = ref [] in
  for r = 0 to reps - 1 do
    let b, i = byz_overhead_rep ~duration ~seed:(7 + r) in
    base := b :: !base;
    inst := i :: !inst;
    ratios := (i /. b) :: !ratios
  done;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  (median !base, median !inst, (1. -. median !ratios) *. 100.)

(* Enabled-path sanity (virtual time, no wall clock): the pinned seeded
   byzantine storm must mutate, bounce some mutants at the validators,
   keep every safety property, and replay bit-identically. *)
let byz_storm_sanity () =
  let module X = Experiments.Chaos_exp in
  let a = X.run ~seed:42 ~byz:(-1) "paxos" in
  let b = X.run ~seed:42 ~byz:(-1) "paxos" in
  let replays =
    a.X.byz_emitted = b.X.byz_emitted
    && a.X.byz_rejected = b.X.byz_rejected
    && a.X.delivered = b.X.delivered
  in
  (a.X.byz_emitted, a.X.byz_rejected, a.X.byz_accepted, a.X.violations, replays)

let byz_json_path = "BENCH_byz.json"

let byz_emit_json ~ev_base ~ev_inst ~overhead_pct ~emitted ~rejected ~accepted ~violations
    ~replays =
  let oc = open_out byz_json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"byz\",\n";
  p "  \"fast\": %b,\n" fast;
  p
    "  \"disabled_path_overhead\": { \"base_events_per_sec\": %.0f, \
     \"instrumented_events_per_sec\": %.0f, \"overhead_pct\": %.2f, \"budget_pct\": 5.0 },\n"
    ev_base ev_inst overhead_pct;
  p
    "  \"storm_sanity\": { \"seed\": 42, \"byz_emitted\": %d, \"byz_rejected\": %d, \
     \"byz_accepted\": %d, \"violations\": %d, \"replays_bit_identical\": %b }\n"
    emitted rejected accepted violations replays;
  p "}\n";
  close_out oc

let byz_bench () =
  section "BYZ Byzantine mutation: disabled-path overhead and storm sanity";
  let duration = if fast then 20. else 60. in
  let reps = if fast then 5 else 9 in
  let ev_base, ev_inst, overhead_pct = byz_overhead_sweep ~duration ~reps in
  let emitted, rejected, accepted, violations, replays = byz_storm_sanity () in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "paxos engine throughput, %.0fs virtual, median of %d paired ratios"
         duration reps)
    ~header:[ "config"; "events/s"; "vs base" ]
    [
      [ "no validator"; Printf.sprintf "%.0f" ev_base; "baseline" ];
      [ "validator, byz off"; Printf.sprintf "%.0f" ev_inst;
        Printf.sprintf "%+.1f%%" (-.overhead_pct) ];
    ];
  Metrics.Report.print ~title:"seeded byzantine storm (seed 42, global channel at 0.05)"
    ~header:[ "quantity"; "value"; "note" ]
    [
      [ "mutants emitted"; Metrics.Report.fint emitted;
        (if emitted > 0 then "storm was real" else "** NO MUTANTS **") ];
      [ "bounced by validators"; Metrics.Report.fint rejected;
        (if rejected > 0 then "admission exercised" else "** NOTHING BOUNCED **") ];
      [ "reached handlers"; Metrics.Report.fint accepted; "survived admission" ];
      [ "safety violations"; Metrics.Report.fint violations;
        (if violations = 0 then "invariants held" else "** UNSAFE **") ];
    ];
  Printf.printf "  disabled-path overhead (validator + rate gate): %.2f%% (budget 5%%)%s\n"
    overhead_pct
    (if overhead_pct < 5. then "" else "  ** OVER BUDGET **");
  Printf.printf "  storm replay: %s\n" (if replays then "bit-identical" else "** DIVERGED **");
  byz_emit_json ~ev_base ~ev_inst ~overhead_pct ~emitted ~rejected ~accepted ~violations
    ~replays;
  Printf.printf "  wrote %s\n" byz_json_path

let () =
  Printf.printf
    "Reproduction benches: Yabandeh et al., Simplifying Distributed System Development (HotOS 2009)\n";
  if fast then print_endline "(--fast: single seed, reduced sweeps)";
  if explorer_only then begin
    ex ();
    exit 0
  end;
  if obs_only then begin
    obs_bench ();
    exit 0
  end;
  if fd_only then begin
    fd_bench ();
    exit 0
  end;
  if overload_only then begin
    ov_bench ();
    exit 0
  end;
  if clock_only then begin
    clock_bench ();
    exit 0
  end;
  if byz_only then begin
    byz_bench ();
    exit 0
  end;
  e1 ();
  e23 ();
  e3b ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  s1 ();
  a1 ();
  a2 ();
  a3 ();
  a4 ();
  a5 ();
  ex ();
  obs_bench ();
  fd_bench ();
  ov_bench ();
  clock_bench ();
  byz_bench ();
  micro ();
  print_endline "\nAll experiment tables regenerated. See EXPERIMENTS.md for the paper-vs-measured record."
