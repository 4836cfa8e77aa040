(* The benchmark harness: regenerates every quantity the paper reports
   (E1-E3), every motivating comparison of its §3.1 (E4-E8), the
   steering result its §2 rests on (S1) and the ablations DESIGN.md
   calls out (A1-A5); then the exploration engine's throughput (EX),
   the runtime's cost layer by layer (LAYERS) and Bechamel
   micro-benchmarks. Paper-reported values are printed alongside
   measured ones; EXPERIMENTS.md records the comparison. *)

let fast = Array.exists (String.equal "--fast") Sys.argv

(* Run only the exploration-engine section (and emit BENCH_explorer.json)
   without regenerating every experiment table. *)
let explorer_only = Array.exists (String.equal "--explorer-only") Sys.argv

(* Run only the per-layer cost ladder (and emit BENCH_layers.json) and
   the interleaved-engines section *)
let layers_only = Array.exists (String.equal "--layers-only") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let seeds = if fast then [ 42 ] else [ 42; 43; 44 ]

(* The middle element of an odd-length list; the upper middle otherwise. *)
let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Every BENCH_*.json is one [Obs.Json] document on one line. *)
let write_json path doc =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* A float rounded to [digits] decimals, for readable JSON. *)
let json_num digits x =
  let scale = 10. ** float_of_int digits in
  Obs.Json.Float (Float.round (x *. scale) /. scale)

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

(* Minor-heap words one call of [f] allocates, averaged over a loop
   after one warm-up call. *)
let words_per_run f =
  let n = if fast then 1_000 else 10_000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

module Micro_tree = Engine.Sim.Make (Apps.Randtree_choice.Default)

(* A 31-node RandTree under the lookahead resolver, run through its
   join phase so that its network model and failure detector hold an
   estimate for every pair that has exchanged a message. *)
let micro_tree () =
  let seed = 42 and nodes = Experiments.Randtree_exp.default_nodes in
  let e = Micro_tree.create ~seed ~topology:(Experiments.Randtree_exp.topology ~seed ~nodes) () in
  Micro_tree.set_lookahead e { Micro_tree.default_lookahead with horizon = 3.0; max_events = 600 };
  Micro_tree.spawn e (Proto.Node_id.of_int 0);
  for i = 1 to nodes - 1 do
    Micro_tree.spawn e ~after:(0.5 +. (0.25 *. float_of_int i)) (Proto.Node_id.of_int i)
  done;
  Micro_tree.run_for e 40.;
  e

(* A handler context over a model that has seen latency, bandwidth and
   loss on every pair of 31 endpoints. *)
let micro_ctx () =
  let n = 31 and at = Dsim.Vtime.of_seconds 1. in
  let net = Net.Netmodel.create () in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        Net.Netmodel.observe_latency net ~src ~dst at 0.01;
        Net.Netmodel.observe_bandwidth net ~src ~dst at 1e6;
        Net.Netmodel.observe_loss net ~src ~dst at ~delivered:true
      end
    done
  done;
  let choose : type a. a Core.Choice.t -> a = fun c -> Core.Choice.nth c 0 in
  ( n,
    {
      Proto.Ctx.self = Proto.Node_id.of_int 0;
      now = Dsim.Vtime.of_seconds 2.;
      rng = Dsim.Rng.create 1;
      net;
      fd = Net.Failure_detector.create ();
      cb = Net.Circuit_breaker.create ();
      pressure = (fun () -> 0.);
      choose;
    } )

(* [cycle xs] returns the elements of [xs] in turn, then starts over;
   it allocates nothing, so a micro that takes its times from it counts
   only the words of the call it measures. *)
let cycle xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | x :: tl ->
        rest := tl;
        x
    | [] ->
        rest := List.tl xs;
        List.hd xs

(* The per-delivery layers of a kv-storm run, one call each: a tracked
   send's ring work, the session read choice, a
   fault-free Netem verdict, the failure detector's heartbeat and the
   network model's three observations. *)
let delivery_path_micros () =
  let nid = Proto.Node_id.of_int in
  let rel : int Engine.Reliable.t =
    Engine.Reliable.create Engine.Reliable.default
  in
  let reliable_test =
    ( "Reliable track+ack+lookup",
      fun () ->
        let seq = Engine.Reliable.track rel ~src:(nid 0) ~dst:(nid 1) 7 in
        if Option.is_some (Engine.Reliable.find rel seq) then Engine.Reliable.remove rel seq;
        ignore (Engine.Reliable.find rel seq) )
  in
  (* A read site as kvstore builds it: four replicas, five features. *)
  let site =
    let alternative (rid, primary, rtt, known) =
      Core.Choice.alt ~features:[| float_of_int rid; (if primary then 1. else 0.); rtt; known; 5. |] rid
    in
    Core.Choice.site ~node:2 ~occurrence:0
      (Core.Choice.make ~label:Apps.Kvstore.read_label ~schema:Apps.Kvstore.read_schema
         (List.map alternative
            [ (0, true, 80., 9.); (1, false, 12., 5.); (2, false, 3., 4.); (3, false, 7., 6.) ]))
  in
  let rng = Dsim.Rng.create 1 in
  let session_test =
    ( "kvstore session resolve (4x5)",
      fun () -> ignore (Apps.Kvstore.session_resolver.Core.Resolver.choose rng site) )
  in
  let seconds = List.init 1000 (fun i -> 1. +. (0.01 *. float_of_int i)) in
  let netem =
    Net.Netem.create ~rng:(Dsim.Rng.create 2)
      (Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.))
  in
  let judge_now = cycle seconds in
  let judge_test =
    ( "Netem.judge fault-free",
      fun () -> ignore (Net.Netem.judge netem ~now:(judge_now ()) ~src:0 ~dst:1 ~bytes:64) )
  in
  let times = List.map Dsim.Vtime.of_seconds seconds in
  let fd = Net.Failure_detector.create () in
  ignore (Net.Failure_detector.heartbeat fd ~observer:0 ~peer:1 ~now:(List.hd times));
  let fd_now = cycle times in
  let heartbeat_test =
    ( "Failure_detector.heartbeat known pair",
      fun () -> ignore (Net.Failure_detector.heartbeat fd ~observer:0 ~peer:1 ~now:(fd_now ())) )
  in
  let nm = Net.Netmodel.create () in
  let link = Net.Netmodel.link nm ~src:0 ~dst:1 in
  let nm_now = cycle times in
  let observe_test =
    ( "Netmodel observe x3",
      fun () ->
        let now = nm_now () in
        Net.Netmodel.observe_link_latency nm link now 0.02;
        Net.Netmodel.observe_link_loss nm link now ~delivered:true;
        Net.Netmodel.observe_link_bandwidth nm link now 3200. )
  in
  [ reliable_test; session_test; judge_test; heartbeat_test; observe_test ]

(* One Bechamel test per core runtime mechanism; each prints ns/op and
   minor words/op. *)
let micro () =
  section "Micro-benchmarks (Bechamel ns/op, minor words/op)";
  let heap_test =
    ( "event queue push+pop x100",
      fun () ->
        let h = Dsim.Event_queue.create () in
        for i = 0 to 99 do
          let x = i * 7919 mod 100 in
          Dsim.Event_queue.push h (float_of_int x) x
        done;
        while not (Dsim.Event_queue.is_empty h) do
          ignore (Dsim.Event_queue.pop h)
        done )
  in
  let rng = Dsim.Rng.create 1 in
  let rng_test = ("rng bits64", fun () -> ignore (Dsim.Rng.bits64 rng)) in
  let rng_uniform_test = ("rng uniform", fun () -> ignore (Dsim.Rng.uniform rng)) in
  let rng_int_test = ("rng int", fun () -> ignore (Dsim.Rng.int rng 1000)) in
  (* A 31-node binary tree, and the same tree with one leaf moved under
     another parent; each run checks the other one, as the engine does
     after an event that moved one link: in full, or through the
     property's tracker told which node changed. *)
  let no_cycle_tests =
    let parent = Fun.id and nid = Proto.Node_id.of_int in
    let tree moved =
      Proto.View.v ~time:Dsim.Vtime.zero ~inflight:[]
        ~nodes:
          (List.init 31 (fun i ->
               ( nid i,
                 if i = 0 then None
                 else if i = 30 && moved then Some (nid 3)
                 else Some (nid ((i - 1) / 2)) )))
    in
    let views = [| tree false; tree true |] in
    let flip = ref 0 in
    let next () =
      flip := 1 - !flip;
      views.(!flip)
    in
    let no_cycle =
      List.find
        (fun (p : _ Core.Property.t) -> p.name = "no-cycle")
        (Apps.Randtree_common.properties ~parent ~joined:(fun _ -> true))
    in
    let tracker = Core.Property.start no_cycle views.(0) in
    [
      ( "randtree no-cycle, 31 nodes, one link moved: full",
        fun () -> ignore (Apps.Randtree_common.Measure.has_cycle ~parent (next ())) );
      ( "randtree no-cycle, 31 nodes, one link moved: tracked",
        fun () ->
          tracker.touch 30;
          ignore (tracker.holds (next ())) );
    ]
  in
  let choice =
    Core.Choice.of_values ~label:"bench" ~schema:(Core.Choice.schema [ "v" ])
      ~feature:(fun v -> [| float_of_int v |])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let resolver_test name r =
    ("resolve " ^ name, fun () -> ignore (Core.Resolver.apply r rng choice ~node:0 ~occurrence:0))
  in
  let bandit = Core.Bandit.create () in
  let netmodel =
    let m = Net.Netmodel.create () in
    Net.Netmodel.observe_latency m ~src:0 ~dst:1 Dsim.Vtime.zero 0.01;
    m
  in
  let netmodel_test =
    ( "netmodel predict",
      fun () ->
        ignore
          (Net.Netmodel.predict_transfer_time netmodel ~src:0 ~dst:1
             ~now:(Dsim.Vtime.of_seconds 1.) ~bytes:512) )
  in
  (* The feature a choice-exposing handler builds per candidate: one
     prediction per call, cycling through the 30 peers. *)
  let predicted_ms_test =
    let n, ctx = micro_ctx () in
    let dst = ref 0 in
    ( "Ctx.predicted_ms, warm 31-endpoint model",
      fun () ->
        dst := if !dst = n - 1 then 1 else !dst + 1;
        ignore (Proto.Ctx.predicted_ms ctx (Proto.Node_id.of_int !dst)) )
  in
  let fork_test =
    let e = micro_tree () in
    ("Sim.fork, 31-node RandTree lookahead engine", fun () -> ignore (Micro_tree.fork e))
  in
  let tests =
    [
      heap_test;
      rng_test;
      rng_uniform_test;
      rng_int_test;
      resolver_test "random" Core.Resolver.random;
      resolver_test "greedy" (Core.Resolver.greedy ~feature:"v" ());
      resolver_test "bandit" (Core.Bandit.to_resolver bandit);
      netmodel_test;
      predicted_ms_test;
      fork_test;
    ]
    @ no_cycle_tests @ delivery_path_micros ()
  in
  List.iter
    (fun (name, f) ->
      let words = words_per_run f in
      List.iter
        (fun (name, ns) -> Printf.printf "  %-58s %12.1f ns/op %10.1f words/op\n" name ns words)
        (ns_per_run (Bechamel.Test.make ~name (Bechamel.Staged.stage f))))
    tests

(* ------------------------------------------------------------------ *)
(* EX: the exploration engine                                           *)
(* ------------------------------------------------------------------ *)

(* Worlds/second of consequence prediction: the retired digest engine
   (kept as Mc.Explorer_ref, the differential-test oracle) against the
   fingerprinted worklist engine, on snapshots frozen out of live paxos
   and randtree runs at the steering defaults (depth 3, max_worlds
   5000). Also times a full steering round (base explore plus one
   re-explore per candidate veto) three ways: cold, with a fresh
   cache per round; against the runtime's persistent cache, handed an
   equal world rebuilt from the snapshot each round (the cache's root
   memo matches it by equality); and handed the same world value each
   round, as Crystal does while a node's inputs are unchanged (the
   memo matches it physically). Results go to stdout and to
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
  steer_before_ms : float;
  steer_after_ms : float;
  steer_equal_ms : float;  (* warm cache, an equal world rebuilt each round *)
  steer_same_ms : float;  (* warm cache, the same world value each round *)
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

  let run ~scenario ?(include_drops = false) ~depth ~max_worlds view =
    let min_time = if fast then 0.2 else 1.0 in
    let w = Ex.world_of_view view in
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
    let steer_before_ms =
      time_ms ~min_time (fun () -> ref_steer_round ~include_drops ~max_worlds ~depth refw)
    in
    let steer_after_ms =
      time_ms ~min_time (fun () -> St.decide ~include_drops ~max_worlds ~depth w)
    in
    let cache = St.Ex.create_cache () in
    let steer_equal_ms =
      time_ms ~min_time (fun () ->
          St.decide ~include_drops ~cache ~max_worlds ~depth (Ex.world_of_view view))
    in
    let steer_same_ms =
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
      steer_before_ms;
      steer_after_ms;
      steer_equal_ms;
      steer_same_ms;
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

let ex_paxos_view ~seed =
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
  Ex_pe.global_view eng

module Ex_rapp = Apps.Randtree_choice.Default
module Ex_re = Engine.Sim.Make (Ex_rapp)
module Ex_rb = Ex_bench (Ex_rapp)

let ex_randtree_view ~seed =
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
  Ex_re.global_view eng

let ex_json_path = "BENCH_explorer.json"

let ex_emit_json rows =
  let open Obs.Json in
  let measure label (m : ex_measure) =
    [ ("engine", Str label); ("worlds_per_run", Int m.worlds_per_run);
      ("ms_per_run", json_num 4 m.ms_per_run); ("worlds_per_sec", json_num 1 m.worlds_per_sec) ]
  in
  let ratio a b = json_num 2 (a /. b) in
  let scenario r =
    Obj
      [
        ("name", Str r.scenario);
        ( "config",
          Obj [ ("depth", Int r.ex_depth); ("max_worlds", Int r.ex_max_worlds);
                ("include_drops", Bool r.ex_drops) ] );
        ( "explore",
          Obj
            [
              ("before", Obj (measure "digest-dfs" r.before));
              ("after", Obj (measure "fingerprint-worklist" r.after));
              ("speedup", ratio r.after.worlds_per_sec r.before.worlds_per_sec);
            ] );
        ( "steering_round",
          Obj [ ("before_ms", json_num 4 r.steer_before_ms);
                ("after_ms", json_num 4 r.steer_after_ms);
                ("after_memo_equal_root_ms", json_num 6 r.steer_equal_ms);
                ("after_memo_same_world_ms", json_num 6 r.steer_same_ms);
                ("speedup", ratio r.steer_before_ms r.steer_after_ms) ] );
        ( "counters",
          Obj [ ("worlds_deduped", Int r.deduped); ("outcomes_cached_warm", Int r.cached_warm);
                ("fingerprint_collisions", Int r.collisions) ] );
      ]
  in
  write_json ex_json_path
    (Obj
       [ ("bench", Str "explorer-engine");
         ( "units",
           Obj [ ("throughput", Str "worlds/second"); ("latency", Str "ms/steering round") ] );
         ("fast", Bool fast);
         ("scenarios", Arr (List.map scenario rows)) ])

let ex () =
  section "EX  Exploration engine: digest DFS vs fingerprinted worklist (steering defaults)";
  let depth = 3 and max_worlds = 5_000 in
  let rows =
    [
      Ex_pb.run ~scenario:"paxos" ~depth ~max_worlds (ex_paxos_view ~seed:3);
      Ex_pb.run ~scenario:"paxos-drops" ~include_drops:true ~depth ~max_worlds
        (ex_paxos_view ~seed:3);
      Ex_rb.run ~scenario:"randtree" ~depth ~max_worlds (ex_randtree_view ~seed:5);
    ]
  in
  Metrics.Report.print ~title:"consequence-prediction throughput (same worlds both engines)"
    ~header:[ "scenario"; "worlds"; "before w/s"; "after w/s"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Printf.sprintf "%d/%d" r.before.worlds_per_run r.after.worlds_per_run;
           Printf.sprintf "%.0f" r.before.worlds_per_sec;
           Printf.sprintf "%.0f" r.after.worlds_per_sec;
           Printf.sprintf "%.1fx" (r.after.worlds_per_sec /. r.before.worlds_per_sec);
         ])
       rows);
  Metrics.Report.print ~title:"steering-round latency (base explore + per-veto re-explores)"
    ~header:
      [ "scenario"; "before (ms)"; "cold (ms)"; "equal root (us)"; "same world (us)"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Printf.sprintf "%.3f" r.steer_before_ms;
           Printf.sprintf "%.3f" r.steer_after_ms;
           Printf.sprintf "%.2f" (r.steer_equal_ms *. 1000.);
           Printf.sprintf "%.3f" (r.steer_same_ms *. 1000.);
           Printf.sprintf "%.1fx" (r.steer_before_ms /. r.steer_after_ms);
         ])
       rows);
  List.iter
    (fun r ->
      Printf.printf "  %-12s deduped %d, warm-cache outcomes %d, fp collisions %d\n" r.scenario
        r.deduped r.cached_warm r.collisions)
    rows;
  ex_emit_json rows;
  Printf.printf "  wrote %s\n" ex_json_path

(* ------------------------------------------------------------------ *)
(* LAYERS: what each runtime layer costs a run that leaves it on       *)
(* ------------------------------------------------------------------ *)

(* One deployment — 5-replica paxos, uniform 20 ms links, no jitter —
   as a cumulative ladder of engines, each rung adding
   one layer to the rung above. Each rung reports wall ns and
   minor-heap words per engine event and per delivered message over the
   first and the last 20 s of a 160 s virtual run; a cost that grows with history shows as a
   late/early ratio above 1. Results go to stdout and BENCH_layers.json.
   The bench exits 1 if an inert rung changes the event stream, a
   rung's late cost exceeds twice its early cost, or a rung's late
   words per delivery rise more than 1% above the checked-in
   BENCH_layers.json. Allocation is exact where wall time is not: the
   seed fixes the work, so the word counts repeat across reps and runs,
   and the fast mode's counts equal the full mode's. They do depend on
   the build profile; the checked-in file comes from dune's dev
   profile, which CI builds.

   Machine drift is spread by rotating the rung order each rep after
   one unrecorded warm-up cycle; each rung reports its median. *)

module Layer_paxos = Apps.Paxos.Make (struct
  let population = 5
  let client_period = 0.25
  let retry_timeout = 2.0
end)

(* The same app without its validator, then without its durable state. *)
module Layer_paxos_durable = struct include Layer_paxos let validate = None end
module Layer_paxos_bare = struct include Layer_paxos_durable let durable = None end

let layer_seed = 7
let each_replica f = List.iter (fun i -> f (Proto.Node_id.of_int i)) [ 0; 1; 2; 3; 4 ]

(* A rung's engine behind closures, so engines over different app
   modules run through one harness. *)
type layer_engine = { run_for : float -> unit; events : unit -> int; deliveries : unit -> int }

module Layer_engine (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)

  (* [install] adds the rung's layers to an otherwise default engine. *)
  let make ?(check_properties = true) ?(fd = true) ?(install = ignore) () =
    let topology =
      Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
    in
    let eng = E.create ~seed:layer_seed ~jitter:0. ~check_properties ~topology () in
    if not fd then E.set_fd_enabled eng false;
    E.set_resolver eng Apps.Paxos.self_resolver;
    each_replica (fun node -> E.spawn eng node);
    install eng;
    {
      run_for = E.run_for eng;
      events = (fun () -> (E.stats eng).events_processed);
      deliveries = (fun () -> (E.stats eng).messages_delivered);
    }
end

module Le_bare = Layer_engine (Layer_paxos_bare)
module Le_durable = Layer_engine (Layer_paxos_durable)
module Le = Layer_engine (Layer_paxos)

(* An inert rung must leave the event stream exactly as the rung above
   it found it: same events, same deliveries. *)
type rung = { rung : string; inert : bool; build : unit -> layer_engine }

let default_rung = "+fd"

let layer_rungs =
  let full_layers =
    [
      (default_rung, false, ignore);
      ("+obs sink", true, fun eng -> Le.E.set_obs eng (Some (Obs.Sink.create ())));
      ( "+identity clocks",
        true,
        fun eng -> each_replica (fun node -> Le.E.set_clock_rate eng node ~rate:1.0) );
      ("+overload idle", true, fun eng -> Le.E.set_overload eng ~config:Le.E.default_overload);
      ("+reliable", false, fun eng -> Le.E.enable_reliable eng);
    ]
  in
  let _, full =
    List.fold_left_map
      (fun below (rung, inert, layer) ->
        let install eng =
          below eng;
          layer eng
        in
        (install, { rung; inert; build = (fun () -> Le.make ~install ()) }))
      ignore full_layers
  in
  [
    { rung = "bare"; inert = false; build = Le_bare.make ~check_properties:false ~fd:false };
    { rung = "+properties"; inert = true; build = Le_bare.make ~fd:false };
    { rung = "+durability"; inert = false; build = Le_durable.make ~fd:false };
    { rung = "+validator"; inert = true; build = Le.make ~fd:false };
  ]
  @ full

let layer_virtual_s = 160
let layer_window_s = 20
let layer_max_growth = 2.

(* Wall ns and minor-heap words per engine event and per delivered
   message over a window. *)
type layer_cost = {
  per_event : float;
  per_delivery : float;
  words_per_event : float;
  words_per_delivery : float;
}
type layer_run = {
  events_total : int;
  deliveries_total : int;
  early : layer_cost;
  late : layer_cost;
}

(* One whole run of a rung, advanced and timed in 1 s virtual slices. *)
let layer_run r =
  let e = r.build () in
  let n = layer_virtual_s in
  let ns = Array.make n 0. and words = Array.make n 0. in
  let ev = Array.make n 0. and dl = Array.make n 0. in
  for s = 0 to n - 1 do
    let ev0 = e.events () and dl0 = e.deliveries () in
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    e.run_for 1.;
    ns.(s) <- Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0);
    words.(s) <- Gc.minor_words () -. w0;
    ev.(s) <- float_of_int (e.events () - ev0);
    dl.(s) <- float_of_int (e.deliveries () - dl0)
  done;
  let window first =
    let sum a = Array.fold_left ( +. ) 0. (Array.sub a first layer_window_s) in
    { per_event = sum ns /. sum ev; per_delivery = sum ns /. sum dl;
      words_per_event = sum words /. sum ev; words_per_delivery = sum words /. sum dl }
  in
  { events_total = e.events (); deliveries_total = e.deliveries ();
    early = window 0; late = window (n - layer_window_s) }

let layers_json_path = "BENCH_layers.json"
let layer_max_word_rise = 0.01

(* Late words per delivery by rung name, from the checked-in file;
   empty when there is none to compare against. *)
let layer_baseline () =
  match In_channel.with_open_text layers_json_path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      let open Obs.Json in
      let num = function
        | Some (Float f) -> Some f
        | Some (Int i) -> Some (float_of_int i)
        | _ -> None
      in
      match of_string (String.trim text) with
      | Error _ -> []
      | Ok doc -> (
          match member "rungs" doc with
          | Some (Arr rungs) ->
              List.filter_map
                (fun r ->
                  let late = Option.bind (member "late" r) (member "words_per_delivery") in
                  match (member "name" r, late) with
                  | Some (Str name), w -> Option.map (fun w -> (name, w)) (num w)
                  | _ -> None)
                rungs
          | _ -> []))

let layers () =
  section "LAYERS Per-layer cost ladder: 5-replica paxos, one layer added per rung";
  let reps = if fast then 3 else 7 in
  (* Read before this run overwrites it. *)
  let baseline = layer_baseline () in
  let rungs = Array.of_list layer_rungs in
  let k = Array.length rungs in
  Array.iter (fun r -> ignore (layer_run r)) rungs;
  let samples = Array.make k [] in
  for rep = 0 to reps - 1 do
    for j = 0 to k - 1 do
      let i = (j + rep) mod k in
      samples.(i) <- layer_run rungs.(i) :: samples.(i)
    done
  done;
  (* The seed is fixed, so every rep of a rung does the same work: the
     counts of any one rep stand for all of them. *)
  let rows =
    Array.map
      (fun runs ->
        let cost pick =
          let med f = median (List.map (fun x -> f (pick x)) runs) in
          { per_event = med (fun c -> c.per_event); per_delivery = med (fun c -> c.per_delivery);
            words_per_event = med (fun c -> c.words_per_event);
            words_per_delivery = med (fun c -> c.words_per_delivery) }
        in
        { (List.hd runs) with early = cost (fun x -> x.early); late = cost (fun x -> x.late) })
      samples
  in
  let growth x = x.late.per_event /. x.early.per_event in
  let failing pred =
    List.filter_map (fun i -> if pred i then Some rungs.(i).rung else None) (List.init k Fun.id)
  in
  let stream_changed =
    failing (fun i ->
        rungs.(i).inert
        && (rows.(i).events_total <> rows.(i - 1).events_total
           || rows.(i).deliveries_total <> rows.(i - 1).deliveries_total))
  in
  let grew = failing (fun i -> growth rows.(i) > layer_max_growth) in
  let allocates_more =
    failing (fun i ->
        match List.assoc_opt rungs.(i).rung baseline with
        | Some base -> rows.(i).late.words_per_delivery > base *. (1. +. layer_max_word_rise)
        | None -> false)
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf
         "wall ns and minor words per event / per delivered message, %ds virtual, early = first \
          %ds, late = last %ds, median of %d"
         layer_virtual_s layer_window_s layer_window_s reps)
    ~header:
      [ "rung"; "events"; "delivered"; "ns/ev early"; "ns/ev late"; "ns/dlv early"; "ns/dlv late";
        "late/early"; "+ns/dlv late"; "w/ev early"; "w/ev late"; "w/dlv early"; "w/dlv late" ]
    (List.init k (fun i ->
         let r = rungs.(i) and x = rows.(i) in
         [
           (if r.rung = default_rung then r.rung ^ " (default engine)" else r.rung);
           Metrics.Report.fint x.events_total;
           Metrics.Report.fint x.deliveries_total;
         ]
         @ List.map (Printf.sprintf "%.0f")
             [ x.early.per_event; x.late.per_event; x.early.per_delivery; x.late.per_delivery ]
         @ [
             Printf.sprintf "%.2fx" (growth x);
             (if i = 0 then "-"
              else Printf.sprintf "%+.0f" (x.late.per_delivery -. rows.(i - 1).late.per_delivery));
           ]
         @ List.map (Printf.sprintf "%.1f")
             [ x.early.words_per_event; x.late.words_per_event; x.early.words_per_delivery;
               x.late.words_per_delivery ]));
  let open Obs.Json in
  let cost c =
    Obj
      [ ("ns_per_event", json_num 1 c.per_event); ("ns_per_delivery", json_num 1 c.per_delivery);
        ("words_per_event", json_num 1 c.words_per_event);
        ("words_per_delivery", json_num 1 c.words_per_delivery) ]
  in
  let rung i =
    let r = rungs.(i) and x = rows.(i) in
    Obj
      [ ("name", Str r.rung); ("default", Bool (r.rung = default_rung)); ("inert", Bool r.inert);
        ("events", Int x.events_total); ("deliveries", Int x.deliveries_total);
        ("early", cost x.early); ("late", cost x.late); ("late_over_early", json_num 3 (growth x)) ]
  in
  write_json layers_json_path
    (Obj
       [
         ("bench", Str "layers"); ("fast", Bool fast); ("reps", Int reps);
         ("statistic", Str "median over reps; rung order rotated per rep after one warm-up cycle");
         ( "deployment",
           Obj
             [ ("app", Str "paxos"); ("replicas", Int 5); ("client_period_s", Float 0.25);
               ("retry_timeout_s", Float 2.0); ("latency_ms", Float 20.); ("jitter", Float 0.);
               ("seed", Int layer_seed) ] );
         ( "timing",
           Obj
             [ ("clock", Str "monotonic wall ns"); ("alloc", Str "Gc.minor_words");
               ("virtual_s", Int layer_virtual_s);
               ("slice_s", Float 1.); ("window_s", Int layer_window_s) ] );
         ("rungs", Arr (List.init k rung));
         ( "checks",
           Obj
             [ ("inert_rungs_match", Bool (stream_changed = []));
               ("max_late_over_early", Float layer_max_growth); ("growth_ok", Bool (grew = []));
               ("max_word_rise", Float layer_max_word_rise);
               ("words_ok", Bool (allocates_more = [])) ] );
       ]);
  Printf.printf "  wrote %s\n" layers_json_path;
  let verdict = function [] -> "yes" | bad -> "NO: " ^ String.concat ", " bad in
  Printf.printf "  inert rungs leave the stream alone: %s\n" (verdict stream_changed);
  Printf.printf "  late ns/event within %.0fx of early: %s\n" layer_max_growth (verdict grew);
  if baseline = [] then Printf.printf "  no checked-in %s to compare words against\n" layers_json_path
  else
    Printf.printf "  late words/delivery within %.0f%% of the checked-in file: %s\n"
      (100. *. layer_max_word_rise) (verdict allocates_more);
  if stream_changed <> [] || grew <> [] || allocates_more <> [] then begin
    prerr_endline "LAYER BENCH CHECK FAILED";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* INTERLEAVE: engines that take turns in one domain                   *)
(* ------------------------------------------------------------------ *)

(* 5-replica [Paxos.Default] engines with their safety checks on,
   advanced in turn 10 ms of virtual time at a time: one engine alone,
   two engines with different seeds, and an engine with a fork taken at
   1 s. A lookahead branch, a sampled predictor or a test running two
   worlds steps engines this way. Each case reports wall ns per event
   (both engines' events together) over the 10 virtual seconds before
   20 s and before 60 s, as the median of its reps; a check whose cost
   grows with the decided log, or that redoes work when the engine
   switches, shows as a rising 60 s column. *)
module Il = Engine.Sim.Make (Apps.Paxos.Default)

let il_engine seed =
  let topology =
    Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = Il.create ~seed ~topology () in
  Il.set_resolver eng Apps.Paxos.self_resolver;
  each_replica (fun node -> Il.spawn eng node);
  eng

(* Wall ns per event over the 10 virtual seconds before 20 s and
   before 60 s. *)
let il_run engines =
  let events () = List.fold_left (fun acc e -> acc + (Il.stats e).events_processed) 0 engines in
  let advance_to until =
    while Dsim.Vtime.to_seconds (Il.now (List.hd engines)) < until -. 0.005 do
      List.iter (fun e -> Il.run_for e 0.01) engines
    done
  in
  let window until =
    advance_to (until -. 10.);
    let ev0 = events () and t0 = Monotonic_clock.now () in
    advance_to until;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int (events () - ev0)
  in
  let at_20 = window 20. in
  (at_20, window 60.)

let il_cases =
  [
    ("one engine", fun () -> [ il_engine 3 ]);
    ("two engines in turn", fun () -> [ il_engine 3; il_engine 7 ]);
    ( "parent + fork in turn",
      fun () ->
        let parent = il_engine 3 in
        Il.run_for parent 1.;
        [ parent; Il.fork parent ] );
  ]

let interleave () =
  section "INTERLEAVE  Engines stepped in turn: 5-replica paxos, checks on, 10 ms slices";
  let reps = if fast then 3 else 5 in
  let rows =
    List.map
      (fun (name, build) ->
        let runs = List.init reps (fun _ -> il_run (build ())) in
        (name, median (List.map fst runs), median (List.map snd runs)))
      il_cases
  in
  let _, _, alone = List.hd rows in
  Metrics.Report.print
    ~title:(Printf.sprintf "wall ns per event over the 10 s before each mark, median of %d" reps)
    ~header:[ "case"; "ns/ev at 20 s"; "ns/ev at 60 s"; "vs one engine at 60 s" ]
    (List.map
       (fun (name, at_20, at_60) ->
         [ name; Printf.sprintf "%.0f" at_20; Printf.sprintf "%.0f" at_60;
           Printf.sprintf "%.2fx" (at_60 /. alone) ])
       rows)

let () =
  Printf.printf
    "Reproduction benches: Yabandeh et al., Simplifying Distributed System Development (HotOS 2009)\n";
  if fast then print_endline "(--fast: single seed, reduced sweeps)";
  if explorer_only then ex ()
  else if layers_only then begin
    layers ();
    interleave ()
  end
  else begin
    List.iter
      (fun f -> f ())
      [ e1; e23; e3b; e4; e5; e6; e7; e8; s1; a1; a2; a3; a4; a5; ex; layers; interleave; micro ];
    print_endline
      "\nAll experiment tables regenerated. See EXPERIMENTS.md for the paper-vs-measured record."
  end
