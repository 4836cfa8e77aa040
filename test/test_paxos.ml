(* Tests for multi-instance Paxos: the acceptor protocol, commit flow,
   agreement under message loss, and the proposer-choice resolvers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module P = Apps.Paxos

module Quiet_params = struct
  let population = 3
  let client_period = 0.  (* no local clients; tests inject commands *)
  let retry_timeout = 1.0
end

module App = P.Make (Quiet_params)
module E = Engine.Sim.Make (App)

module Busy_params = struct
  let population = 5
  let client_period = 0.5
  let retry_timeout = 1.0
end

module Busy = P.Make (Busy_params)
module BE = Engine.Sim.Make (Busy)

let topology n ?(loss = 0.) () =
  Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss)

let make_quiet ?(seed = 3) () =
  let eng = E.create ~seed ~jitter:0. ~topology:(topology 3 ()) () in
  E.set_resolver eng P.self_resolver;
  for i = 0 to 2 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.05;
  eng

let cmd ?(origin = 1) ?(seq = 0) () = { P.origin; seq; born = 0. }

let decided_count eng i =
  match E.state_of eng (nid i) with
  | Some st -> P.Int_map.cardinal (App.decided st)
  | None -> -1

let test_submit_commits_everywhere () =
  let eng = make_quiet () in
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Submit { cmd = cmd () });
  E.run_for eng 2.;
  for i = 0 to 2 do
    checki (Printf.sprintf "replica %d decided" i) 1 (decided_count eng i)
  done;
  checki "no violations" 0 (List.length (E.violations eng))

let test_acceptor_ballot_ordering () =
  let eng = make_quiet () in
  (* A high prepare blocks a lower accept. *)
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Prepare { inst = 0; bal = 50 });
  E.run_for eng 1.;
  checki "promise sent" 1 (E.delivered_of_kind eng "promise");
  E.inject eng ~src:(nid 2) ~dst:(nid 0) (P.Accept_req { inst = 0; bal = 10; cmd = cmd () });
  E.run_for eng 1.;
  checki "low accept rejected" 0 (E.delivered_of_kind eng "accepted");
  E.inject eng ~src:(nid 2) ~dst:(nid 0) (P.Accept_req { inst = 0; bal = 60; cmd = cmd () });
  E.run_for eng 1.;
  checki "high accept taken" 1 (E.delivered_of_kind eng "accepted")

let test_lower_prepare_ignored () =
  let eng = make_quiet () in
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Prepare { inst = 0; bal = 50 });
  E.run_for eng 1.;
  E.inject eng ~src:(nid 2) ~dst:(nid 0) (P.Prepare { inst = 0; bal = 20 });
  E.run_for eng 1.;
  checki "only the first promised" 1 (E.delivered_of_kind eng "promise")

let test_latency_recorded_at_origin () =
  let eng = make_quiet () in
  (* Born at replica 0's clock 0; committed shortly after. *)
  E.inject eng ~src:(nid 0) ~dst:(nid 0) (P.Submit { cmd = cmd ~origin:0 () });
  E.run_for eng 2.;
  match E.state_of eng (nid 0) with
  | Some st ->
      checki "one latency sample" 1 (List.length (App.latencies st));
      checkb "positive latency" true (List.for_all (fun l -> l > 0.) (App.latencies st))
  | None -> Alcotest.fail "origin missing"

(* Two replicas that learned the same decisions in opposite orders hold
   the same bindings in differently shaped maps; [equal_state] must
   still call them equal, or the explorer fails to dedup them. *)
let test_equal_state_ignores_insertion_order () =
  let learn order =
    let eng = make_quiet () in
    List.iteri
      (fun k inst ->
        E.inject eng ~after:(0.001 *. float_of_int k) ~src:(nid (inst mod 3)) ~dst:(nid 2)
          (P.Decided { inst; cmd = cmd ~origin:0 ~seq:inst () }))
      order;
    E.run_for eng 0.1;
    match E.state_of eng (nid 2) with Some st -> st | None -> Alcotest.fail "replica 2 missing"
  in
  let insts = List.init 6 Fun.id in
  let a = learn insts and b = learn (List.rev insts) in
  checkb "same decisions" true
    (P.Int_map.bindings (App.decided a) = P.Int_map.bindings (App.decided b));
  checkb "differently shaped maps" false (App.decided a = App.decided b);
  checkb "equal states" true (App.equal_state a b);
  checkb "one decision fewer is not equal" false
    (App.equal_state a (learn [ 0; 1; 2; 3; 4 ]))

let run_busy ~seed ~loss ~duration resolver =
  let eng = BE.create ~seed ~jitter:0. ~topology:(topology 5 ~loss ()) () in
  BE.set_resolver eng resolver;
  for i = 0 to 4 do
    BE.spawn eng (nid i)
  done;
  BE.run_for eng duration;
  eng

let test_agreement_under_loss () =
  (* 5% loss: retries must recover and agreement must never break. *)
  let eng = run_busy ~seed:11 ~loss:0.05 ~duration:30. P.self_resolver in
  checki "agreement intact" 0
    (List.length (List.filter (fun (_, n) -> n = "agreement") (BE.violations eng)));
  let committed =
    List.fold_left (fun acc (_, st) -> acc + List.length (Busy.latencies st)) 0 (BE.live_nodes eng)
  in
  checkb "most commands committed" true (committed > 200)

let test_throughput_all_policies () =
  List.iter
    (fun resolver ->
      let eng = run_busy ~seed:7 ~loss:0. ~duration:10. resolver in
      let committed =
        List.fold_left
          (fun acc (_, st) -> acc + List.length (Busy.latencies st))
          0 (BE.live_nodes eng)
      in
      checkb ("commits under " ^ resolver.Core.Resolver.name) true (committed >= 80);
      checki ("agreement under " ^ resolver.Core.Resolver.name) 0
        (List.length (List.filter (fun (_, n) -> n = "agreement") (BE.violations eng))))
    [
      P.self_resolver;
      P.fixed_leader_resolver ~leader:0;
      P.round_robin_resolver ~population:5;
      Core.Resolver.random;
    ]

let test_equal_ballot_value_change_rejected () =
  (* Regression for the crash-recovery bug the chaos example caught: an
     amnesiac proposer reusing a ballot must not overwrite an accepted
     value; re-sending the same value stays idempotent. *)
  let eng = make_quiet () in
  let a = cmd ~origin:1 ~seq:0 () and b = cmd ~origin:2 ~seq:9 () in
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Accept_req { inst = 0; bal = 6; cmd = a });
  E.run_for eng 0.5;
  checki "first accepted" 1 (E.delivered_of_kind eng "accepted");
  E.inject eng ~src:(nid 2) ~dst:(nid 0) (P.Accept_req { inst = 0; bal = 6; cmd = b });
  E.run_for eng 0.5;
  checki "conflicting value refused" 1 (E.delivered_of_kind eng "accepted");
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Accept_req { inst = 0; bal = 6; cmd = a });
  E.run_for eng 0.5;
  checki "same value idempotent" 2 (E.delivered_of_kind eng "accepted")

let test_crash_recovery_chaos_regression () =
  (* The exact chaos-plan shape that exposed the instance-reuse bug:
     partition + crash + restart; agreement must survive. *)
  let module F = Engine.Faultplan in
  let module Run = F.Run (BE) in
  let eng = BE.create ~seed:7 ~jitter:0. ~topology:(topology 5 ()) () in
  BE.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    BE.spawn eng (nid i)
  done;
  Run.execute ~and_then:15. eng
    (F.plan
       [
         (5., F.Partition ([ 3; 4 ], [ 0; 1; 2 ]));
         (8., F.Kill 2);
         (11., F.Restart 2);
         (14., F.Heal_partition ([ 3; 4 ], [ 0; 1; 2 ]));
       ]);
  checki "agreement survives crash-recovery" 0
    (List.length (List.filter (fun (_, n) -> n = "agreement") (BE.violations eng)))

(* ---------- model checking ---------- *)

module Ex = Mc.Explorer.Make (App)

let test_agreement_model_checked () =
  (* Freeze a live run mid-protocol (accept requests in flight), then
     exhaustively explore every delivery order, every message drop and
     adversarial generic-node injections: agreement must hold in every
     reachable world. *)
  let eng = make_quiet () in
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Submit { cmd = cmd () });
  E.inject eng ~src:(nid 2) ~dst:(nid 1) (P.Submit { cmd = cmd ~origin:2 ~seq:1 () });
  E.run_for eng 0.015;
  let view = E.global_view eng in
  checkb "protocol frozen mid-flight" true (Proto.View.inflight_count view > 0);
  let world = Ex.world_of_view view in
  let result =
    Ex.explore ~max_worlds:30_000 ~include_drops:true ~generic_node:true ~depth:4 world
  in
  checkb "a real state space was covered" true (result.Ex.worlds_explored > 100);
  checki "agreement holds in every explored world" 0
    (List.length
       (List.filter (fun (v : Ex.violation) -> v.Ex.property = "agreement") result.Ex.violations))

(* ---------- resolver units ---------- *)

let proposer_site ~node ~seq =
  let alternative rid =
    Core.Choice.alt
      ~features:
        [| float_of_int rid; float_of_int seq; (if rid = node then 1. else 0.); 10. |]
      rid
  in
  Core.Choice.site ~node ~occurrence:0
    (Core.Choice.make ~label:P.proposer_label ~schema:P.proposer_schema
       (List.map alternative [ 0; 1; 2; 3; 4 ]))

let test_fixed_leader_resolver () =
  let r = P.fixed_leader_resolver ~leader:2 in
  let g = Dsim.Rng.create 1 in
  checki "leader picked" 2 (r.Core.Resolver.choose g (proposer_site ~node:4 ~seq:9))

let test_self_resolver () =
  let r = P.self_resolver in
  let g = Dsim.Rng.create 1 in
  checki "self picked" 3 (r.Core.Resolver.choose g (proposer_site ~node:3 ~seq:0))

let test_round_robin_resolver () =
  let r = P.round_robin_resolver ~population:5 in
  let g = Dsim.Rng.create 1 in
  let picks = List.init 5 (fun seq -> r.Core.Resolver.choose g (proposer_site ~node:1 ~seq)) in
  Alcotest.check (Alcotest.list Alcotest.int) "rotates" [ 1; 2; 3; 4; 0 ] picks

let test_experiment_fixed_vs_local () =
  let run p =
    Experiments.Paxos_exp.run ~seed:6 ~duration:20.
      ~scenario:Experiments.Paxos_exp.Balanced_wan p
  in
  let fixed = run Experiments.Paxos_exp.Fixed_leader in
  let local = run Experiments.Paxos_exp.Local in
  checki "fixed agreement" 0 fixed.Experiments.Paxos_exp.agreement_violations;
  checki "local agreement" 0 local.Experiments.Paxos_exp.agreement_violations;
  (* The Mencius-style local proposer beats the fixed leader on WAN
     commit latency — the paper's §3.1 consensus story. *)
  checkb "local faster" true
    (local.Experiments.Paxos_exp.mean_latency_ms < fixed.Experiments.Paxos_exp.mean_latency_ms)

let () =
  Alcotest.run "paxos"
    [
      ( "protocol",
        [
          Alcotest.test_case "submit commits" `Quick test_submit_commits_everywhere;
          Alcotest.test_case "ballot ordering" `Quick test_acceptor_ballot_ordering;
          Alcotest.test_case "lower prepare ignored" `Quick test_lower_prepare_ignored;
          Alcotest.test_case "latency at origin" `Quick test_latency_recorded_at_origin;
          Alcotest.test_case "equal-ballot value change" `Quick test_equal_ballot_value_change_rejected;
          Alcotest.test_case "equal_state ignores insertion order" `Quick
            test_equal_state_ignores_insertion_order;
          Alcotest.test_case "crash-recovery chaos" `Slow test_crash_recovery_chaos_regression;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "under loss" `Slow test_agreement_under_loss;
          Alcotest.test_case "all policies" `Slow test_throughput_all_policies;
        ] );
      ( "model-checking",
        [ Alcotest.test_case "agreement under adversary" `Slow test_agreement_model_checked ] );
      ( "resolvers",
        [
          Alcotest.test_case "fixed leader" `Quick test_fixed_leader_resolver;
          Alcotest.test_case "self" `Quick test_self_resolver;
          Alcotest.test_case "round robin" `Quick test_round_robin_resolver;
        ] );
      ( "experiment",
        [ Alcotest.test_case "fixed vs local" `Slow test_experiment_fixed_vs_local ] );
    ]
