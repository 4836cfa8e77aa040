(* Tests for the gossip protocol and its resolver-expressed policies. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module G = Apps.Gossip

module Small_params = struct
  let population = 8
  let round_period = 0.5
  let candidate_cap = 7
end

module App = G.Make (Small_params)
module E = Engine.Sim.Make (App)

let topology =
  Net.Topology.uniform ~n:Small_params.population
    (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let make ?(resolver = Core.Resolver.random) ?(seed = 2) () =
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_resolver eng resolver;
  for i = 0 to Small_params.population - 1 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.1;
  eng

let known_count eng i =
  match E.state_of eng (nid i) with
  | Some st -> G.Int_set.cardinal (App.known st)
  | None -> -1

let test_msg_bytes_scale () =
  checkb "payload grows" true
    (G.msg_bytes (G.Push { rumors = [ 1; 2; 3 ]; round = 0 })
    > G.msg_bytes (G.Push { rumors = [ 1 ]; round = 0 }))

let test_rumor_spreads_everywhere () =
  let eng = make () in
  E.inject eng ~src:(nid 0) ~dst:(nid 0) (G.Push { rumors = [ 7 ]; round = 0 });
  E.run_for eng 10.;
  for i = 0 to Small_params.population - 1 do
    checki (Printf.sprintf "node %d knows" i) 1 (known_count eng i)
  done

let test_push_back_fills_sender () =
  let eng = make () in
  (* Give node 1 a private rumor, then have node 0 push its own rumor
     to node 1: the push-pull reply must teach node 0 both. *)
  E.inject eng ~src:(nid 1) ~dst:(nid 1) (G.Push { rumors = [ 100 ]; round = 0 });
  E.run_for eng 0.2;
  E.inject eng ~src:(nid 0) ~dst:(nid 0) (G.Push { rumors = [ 200 ]; round = 0 });
  E.run_for eng 0.2;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (G.Push { rumors = [ 200 ]; round = 0 });
  E.run_for eng 2.;
  checkb "node 0 learned via push-back" true (known_count eng 0 = 2)

let test_silent_nodes_do_not_gossip () =
  let eng = make () in
  E.run_for eng 5.;
  checki "no pushes without rumors" 0 (E.delivered_of_kind eng "push")

let test_rounds_advance () =
  let eng = make () in
  E.run_for eng 3.;
  match E.state_of eng (nid 0) with
  | Some st -> checkb "rounds counted" true (App.round_of st >= 5)
  | None -> Alcotest.fail "node missing"

let test_restricted_resolver_deterministic () =
  let r = G.restricted_resolver ~population:Small_params.population in
  let mk_site round =
    let alternative peer =
      Core.Choice.alt ~features:[| float_of_int peer; float_of_int round; 10.; 1e6 |] peer
    in
    Core.Choice.site ~node:3 ~occurrence:0
      (Core.Choice.make ~label:G.peer_label ~schema:G.peer_schema
         (List.map alternative [ 0; 1; 2; 4; 5; 6; 7 ]))
  in
  let g = Dsim.Rng.create 1 in
  let a = r.Core.Resolver.choose g (mk_site 5) in
  let b = r.Core.Resolver.choose g (mk_site 5) in
  checki "same round same partner" a b;
  let series = List.sort_uniq Int.compare (List.init 10 (fun round -> r.Core.Resolver.choose g (mk_site round))) in
  checkb "schedule rotates across rounds" true (List.length series > 1)

let test_uniform_knowledge_liveness_definition () =
  let eng = make () in
  E.inject eng ~src:(nid 0) ~dst:(nid 0) (G.Push { rumors = [ 7 ]; round = 0 });
  E.run_for eng 10.;
  let view = E.global_view eng in
  let unmet =
    List.filter
      (fun (p : _ Core.Property.t) ->
        p.Core.Property.kind = Core.Property.Liveness && not (p.Core.Property.holds view))
      App.properties
  in
  checki "uniform knowledge reached" 0 (List.length unmet)

(* ---------- monolithic baseline variant ---------- *)

module BApp = Apps.Gossip_baseline.Make (Small_params)
module BE = Engine.Sim.Make (BApp)

let test_baseline_spreads_without_choices () =
  let eng = BE.create ~seed:2 ~jitter:0. ~topology () in
  BE.set_resolver eng Core.Resolver.random;
  for i = 0 to Small_params.population - 1 do
    BE.spawn eng (nid i)
  done;
  BE.run_for eng 0.1;
  BE.inject eng ~src:(nid 0) ~dst:(nid 0) (G.Push { rumors = [ 7 ]; round = 0 });
  BE.run_for eng 10.;
  List.iter
    (fun (_, st) ->
      checkb "baseline covers" true (Apps.Gossip_baseline.Int_set.mem 7 (BApp.known st)))
    (BE.live_nodes eng);
  checki "policy hard-coded: zero choice points" 0 (BE.stats eng).decisions

let test_baseline_learns_rtt () =
  let eng = BE.create ~seed:2 ~jitter:0. ~topology () in
  BE.set_resolver eng Core.Resolver.random;
  for i = 0 to Small_params.population - 1 do
    BE.spawn eng (nid i)
  done;
  (* Distinct rumors at distinct origins, so push-pull exchanges carry
     diffs in both directions and the probe timings get answered. *)
  BE.inject eng ~after:0.1 ~src:(nid 0) ~dst:(nid 0) (G.Push { rumors = [ 7 ]; round = 0 });
  BE.inject eng ~after:0.15 ~src:(nid 3) ~dst:(nid 3) (G.Push { rumors = [ 8 ]; round = 0 });
  BE.inject eng ~after:0.2 ~src:(nid 5) ~dst:(nid 5) (G.Push { rumors = [ 9 ]; round = 0 });
  BE.run_for eng 20.;
  (* The hand-rolled estimator must have produced at least one RTT
     estimate on the busiest node. *)
  let has_estimate =
    List.exists
      (fun (_, st) ->
        List.exists
          (fun i -> BApp.rtt_estimate st (nid i) <> None)
          (List.init Small_params.population Fun.id))
      (BE.live_nodes eng)
  in
  checkb "estimator fed" true has_estimate

let test_metrics_gossip_pair () =
  match Experiments.Metrics_exp.run_gossip () with
  | Some g ->
      checkb "baseline bigger" true
        (g.baseline.Metrics.Code_metrics.loc > g.choice.Metrics.Code_metrics.loc);
      checkb "baseline more complex" true
        (g.baseline.Metrics.Code_metrics.per_handler
        > g.choice.Metrics.Code_metrics.per_handler)
  | None -> Alcotest.fail "gossip sources not found"

let test_experiment_small () =
  let o =
    Experiments.Gossip_exp.run ~seed:3 ~waves:2 ~scenario:Experiments.Gossip_exp.Uniform
      Experiments.Gossip_exp.Random_peer
  in
  checkb "coverage achieved before deadline" true (o.Experiments.Gossip_exp.max_coverage_s < 30.);
  checkb "messages flowed" true (o.Experiments.Gossip_exp.messages > 0)

let () =
  Alcotest.run "gossip"
    [
      ( "protocol",
        [
          Alcotest.test_case "msg bytes" `Quick test_msg_bytes_scale;
          Alcotest.test_case "spreads" `Quick test_rumor_spreads_everywhere;
          Alcotest.test_case "push-back" `Quick test_push_back_fills_sender;
          Alcotest.test_case "silent without rumors" `Quick test_silent_nodes_do_not_gossip;
          Alcotest.test_case "rounds advance" `Quick test_rounds_advance;
          Alcotest.test_case "liveness definition" `Quick test_uniform_knowledge_liveness_definition;
        ] );
      ( "policies",
        [
          Alcotest.test_case "restricted deterministic" `Quick test_restricted_resolver_deterministic;
          Alcotest.test_case "experiment small" `Slow test_experiment_small;
        ] );
      ( "baseline variant",
        [
          Alcotest.test_case "spreads without choices" `Quick test_baseline_spreads_without_choices;
          Alcotest.test_case "learns rtt" `Quick test_baseline_learns_rtt;
          Alcotest.test_case "code metrics pair" `Quick test_metrics_gossip_pair;
        ] );
    ]
