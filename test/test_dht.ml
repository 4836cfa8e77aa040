(* Tests for the Chord-style DHT. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module D = Apps.Dht

module Small_params = struct
  let population = 8
  let query_period = 0.5
  let max_hops = 24
end

module App = D.Make (Small_params)
module E = Engine.Sim.Make (App)

let topology =
  Net.Topology.uniform ~n:Small_params.population
    (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let make ?(resolver = Core.Resolver.greedy ~feature:"remaining" ()) ?(seed = 6) () =
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_resolver eng resolver;
  for i = 0 to Small_params.population - 1 do
    E.spawn eng (nid i)
  done;
  eng

(* ---------- ring arithmetic ---------- *)

let test_ring_distance () =
  checki "forward" 5 (D.distance 10 15);
  checki "wraps" (D.ring_size - 5) (D.distance 15 10);
  checki "self" 0 (D.distance 42 42)

let test_positions_spread () =
  let positions = List.init Small_params.population App.position_of in
  checki "distinct positions" Small_params.population
    (List.length (List.sort_uniq compare positions));
  checkb "in range" true (List.for_all (fun p -> p >= 0 && p < D.ring_size) positions)

let test_owner_of () =
  (* With 8 nodes on a 256 ring, node i sits at 32*i; key 33 belongs to
     the next node clockwise: node 2 at position 64. *)
  checki "key on node" 1 (Proto.Node_id.to_int (App.owner_of 32));
  checki "key after node" 2 (Proto.Node_id.to_int (App.owner_of 33));
  checki "wraparound" 0 (Proto.Node_id.to_int (App.owner_of 225))

(* ---------- routing ---------- *)

let totals eng =
  List.fold_left
    (fun (done_, issued, viol) (_, st) ->
      (done_ + List.length (App.lookups st), issued + App.issued st, viol + App.hop_violations st))
    (0, 0, 0) (E.live_nodes eng)

let test_lookups_complete () =
  let eng = make () in
  E.run_for eng 20.;
  let done_, issued, viol = totals eng in
  checkb "many lookups" true (issued > 100);
  (* Lookups issued in the final moments are still in flight; allow at
     most one outstanding per node. *)
  checkb "all but in-flight completed" true (done_ >= issued - Small_params.population);
  checki "no hop violations" 0 viol;
  checki "no property violations" 0 (List.length (E.violations eng))

let test_hops_logarithmic () =
  let eng = make () in
  E.run_for eng 20.;
  let hops = Dsim.Stats.create () in
  List.iter
    (fun (_, st) -> List.iter (fun (_, h) -> Dsim.Stats.add hops (float_of_int h)) (App.lookups st))
    (E.live_nodes eng);
  (* log2(8) = 3: greedy progress should average well under that. *)
  checkb "mean hops <= log n" true (Dsim.Stats.mean hops <= 3.0)

let test_all_policies_route () =
  List.iter
    (fun resolver ->
      let eng = make ~resolver () in
      E.run_for eng 10.;
      let done_, issued, viol = totals eng in
      checkb ("complete under " ^ resolver.Core.Resolver.name) true
        (done_ >= issued - Small_params.population);
      checki ("bounded under " ^ resolver.Core.Resolver.name) 0 viol)
    [
      Core.Resolver.greedy ~feature:"remaining" ();
      Core.Resolver.greedy ~feature:"rtt_ms" ();
      Core.Resolver.random;
      D.pns_resolver;
    ]

let test_routing_choice_exposed () =
  let eng = make ~resolver:Core.Resolver.random () in
  E.run_for eng 5.;
  checkb "route decisions logged" true
    (List.exists
       (fun (_, site, _) -> String.equal site.Core.Choice.site_label D.route_label)
       (E.decision_sites eng))

let test_pns_prefers_near_equal_progress () =
  let site =
    Core.Choice.site ~node:0 ~occurrence:0
      (Core.Choice.make ~label:D.route_label ~schema:D.route_schema
         [
           Core.Choice.alt ~features:[| 10.; 80. |] 0;
           Core.Choice.alt ~features:[| 12.; 5. |] 1;
           Core.Choice.alt ~features:[| 200.; 1. |] 2;
         ])
  in
  let g = Dsim.Rng.create 1 in
  (* Alternative 1 is nearly as much progress as 0 but far cheaper;
     alternative 2 is cheap but barely advances — PNS must pick 1. *)
  checki "pns" 1 (D.pns_resolver.Core.Resolver.choose g site)

let test_experiment_shape () =
  let progress = Experiments.Dht_exp.run ~seed:4 ~duration:20. Experiments.Dht_exp.Progress in
  let proximity = Experiments.Dht_exp.run ~seed:4 ~duration:20. Experiments.Dht_exp.Proximity in
  checkb "progress completes" true
    (progress.Experiments.Dht_exp.completed
    >= progress.Experiments.Dht_exp.issued - Experiments.Dht_exp.population);
  (* Pure proximity routing takes many more hops than greedy progress. *)
  checkb "proximity pays in hops" true
    (proximity.Experiments.Dht_exp.mean_hops > 1.5 *. progress.Experiments.Dht_exp.mean_hops)

let () =
  Alcotest.run "dht"
    [
      ( "ring",
        [
          Alcotest.test_case "distance" `Quick test_ring_distance;
          Alcotest.test_case "positions" `Quick test_positions_spread;
          Alcotest.test_case "owner" `Quick test_owner_of;
        ] );
      ( "routing",
        [
          Alcotest.test_case "lookups complete" `Quick test_lookups_complete;
          Alcotest.test_case "hops logarithmic" `Quick test_hops_logarithmic;
          Alcotest.test_case "all policies" `Quick test_all_policies_route;
          Alcotest.test_case "choice exposed" `Quick test_routing_choice_exposed;
          Alcotest.test_case "pns picks combined" `Quick test_pns_prefers_near_equal_progress;
        ] );
      ("experiment", [ Alcotest.test_case "shape" `Slow test_experiment_shape ]);
    ]
