(* Tests for the replicated KV store and its read-replica policies. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module K = Apps.Kvstore
module App = K.Default
module E = Engine.Sim.Make (App)

let topology =
  Net.Topology.uniform ~n:K.Default_params.population
    (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

let make ?(resolver = K.session_resolver) ?(seed = 8) () =
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_resolver eng resolver;
  for i = 0 to K.Default_params.population - 1 do
    E.spawn eng (nid i)
  done;
  eng

let totals eng =
  List.fold_left
    (fun (reads, viol, applied) (_, st) ->
      (reads + App.reads_done st, viol + App.monotonic_violations st, max applied (App.applied_seq st)))
    (0, 0, 0) (E.live_nodes eng)

let test_writes_replicate () =
  let eng = make () in
  E.run_for eng 10.;
  let _, _, head = totals eng in
  checkb "writes sequenced" true (head > 10);
  (* After a quiet period every replica has applied everything. *)
  E.run_for eng 1.;
  let applied = List.map (fun (_, st) -> App.applied_seq st) (E.live_nodes eng) in
  checkb "replicas close to head" true
    (List.for_all (fun a -> head - a <= 5) applied)

let test_reads_complete () =
  let eng = make () in
  E.run_for eng 20.;
  let reads, _, _ = totals eng in
  checkb "many reads served" true (reads > 100)

let test_monotonic_reads_hold_for_sane_policies () =
  List.iter
    (fun resolver ->
      let eng = make ~resolver () in
      E.run_for eng 30.;
      let _, viol, _ = totals eng in
      checki ("no regressions under " ^ resolver.Core.Resolver.name) 0 viol)
    [ K.primary_resolver; K.session_resolver; K.nearest_resolver ]

let test_apply_out_of_order_buffered () =
  (* Deliver applies 2 then 1 by hand: nothing applies until 1 lands,
     then both do, in order. *)
  let eng = E.create ~seed:8 ~jitter:0. ~topology () in
  E.set_resolver eng K.session_resolver;
  E.spawn eng (nid 1);
  E.run_for eng 0.05;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (K.Apply { seq = 2; key = 3; value = 2 });
  E.run_for eng 0.5;
  (match E.state_of eng (nid 1) with
  | Some st -> checki "gap blocks apply" 0 (App.applied_seq st)
  | None -> Alcotest.fail "replica missing");
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (K.Apply { seq = 1; key = 7; value = 1 });
  E.run_for eng 0.5;
  match E.state_of eng (nid 1) with
  | Some st -> checki "both applied in order" 2 (App.applied_seq st)
  | None -> Alcotest.fail "replica missing"

(* ---------- resolver units ---------- *)

let read_site ~floor ~known =
  let alternative (rid, is_primary, rtt, known_seq) =
    Core.Choice.alt
      ~features:[| float_of_int rid; (if is_primary then 1. else 0.); rtt; known_seq; floor |]
      rid
  in
  Core.Choice.site ~node:2 ~occurrence:0
    (Core.Choice.make ~label:K.read_label ~schema:K.read_schema (List.map alternative known))

let test_primary_resolver () =
  let site = read_site ~floor:5. ~known:[ (1, false, 5., 9.); (0, true, 80., 9.) ] in
  let g = Dsim.Rng.create 1 in
  checki "primary wins regardless of rtt" 1 (K.primary_resolver.Core.Resolver.choose g site)

let test_nearest_resolver () =
  let site = read_site ~floor:5. ~known:[ (0, true, 80., 9.); (3, false, 4., 0.) ] in
  let g = Dsim.Rng.create 1 in
  checki "cheapest wins regardless of freshness" 1
    (K.nearest_resolver.Core.Resolver.choose g site)

let test_session_resolver () =
  let g = Dsim.Rng.create 1 in
  (* A cheap fresh-enough replica beats both the primary and a cheaper
     stale one. *)
  let site =
    read_site ~floor:5.
      ~known:[ (0, true, 80., 99.); (3, false, 10., 7.); (4, false, 3., 2.) ]
  in
  checki "cheap fresh replica" 1 (K.session_resolver.Core.Resolver.choose g site);
  (* Nobody fresh: fall back to the primary. *)
  let site = read_site ~floor:50. ~known:[ (0, true, 80., 10.); (3, false, 3., 7.) ] in
  checki "primary fallback" 0 (K.session_resolver.Core.Resolver.choose g site)

(* The session resolver's answers on a fixed table of sites: read sites
   as the app builds them (replica_id, is_primary, rtt_ms, known_seq,
   floor), and sites under other schemas, where a feature the schema
   lacks reads 0. *)
let session_table =
  let read (rid, primary, rtt, known, floor) =
    [| float_of_int rid; (if primary then 1. else 0.); rtt; known; floor |]
  in
  let reads what alts expected = (what, K.read_schema, List.map read alts, expected) in
  [
    reads "one replica" [ (0, true, 80., 3., 3.) ] 0;
    reads "cheapest fresh of four"
      [
        (0, true, 80., 9., 5.); (1, false, 12., 5., 5.); (2, false, 3., 4., 5.); (3, false, 7., 6., 5.);
      ]
      3;
    reads "all fresh, cheapest wins"
      [ (0, true, 30., 6., 5.); (1, false, 10., 5., 5.); (2, false, 3., 7., 5.) ]
      2;
    reads "rtt tie keeps the first" [ (0, false, 5., 0., 0.); (1, false, 5., 0., 0.) ] 0;
    reads "primary is fresh at any seq"
      [ (0, false, 1., 2., 9.); (1, true, 40., 0., 9.); (2, false, 2., 8., 9.) ]
      1;
    reads "nobody fresh and no primary: alternative 0"
      [ (0, false, 9., 1., 10.); (1, false, 1., 2., 10.) ]
      0;
    ( "missing rtt reads 0: the first fresh wins",
      Core.Choice.schema [ "known_seq"; "is_primary"; "floor" ],
      [ [| 1.; 0.; 2. |]; [| 3.; 0.; 2. |]; [| 4.; 0.; 2. |] ],
      1 );
    ( "missing floor reads 0",
      Core.Choice.schema [ "rtt_ms"; "known_seq" ],
      [ [| 9.; -1. |]; [| 2.; 0. |]; [| 5.; 0. |] ],
      1 );
    ( "missing is_primary: alternative 0",
      Core.Choice.schema [ "rtt_ms"; "known_seq"; "floor" ],
      [ [| 9.; 0.; 5. |]; [| 2.; 1.; 5. |] ],
      0 );
    ("an empty schema: every alternative fresh and tied", Core.Choice.no_features, [ [||]; [||] ], 0);
  ]

let test_session_resolver_table () =
  let g = Dsim.Rng.create 1 in
  List.iter
    (fun (what, schema, alts, expected) ->
      let site =
        Core.Choice.site ~node:2 ~occurrence:0
          (Core.Choice.make ~label:K.read_label ~schema
             (List.mapi (fun i features -> Core.Choice.alt ~features i) alts))
      in
      checki what expected (K.session_resolver.Core.Resolver.choose g site))
    session_table

(* What the engine keeps per logged read decision: the time, the site
   and the index, with the site's label, its counters and one flat
   float array of 4 alternatives x 5 features; the schema is shared by
   every read and not counted. *)
let test_logged_read_size () =
  let eng = make () in
  E.run_for eng 5.;
  match
    List.find_opt
      (fun (_, (site : Core.Choice.site), _) -> String.equal site.site_label K.read_label)
      (E.decision_sites eng)
  with
  | None -> Alcotest.fail "no read decision logged"
  | Some ((_, site, _) as entry) ->
      checki "read site arity" 4 site.site_arity;
      checkb "schema shared" true (site.site_schema == K.read_schema);
      let words = Obj.reachable_words (Obj.repr entry) - Obj.reachable_words (Obj.repr K.read_schema) in
      checkb (Printf.sprintf "%d words retained, at most 40" words) true (words <= 40)

let test_experiment_tradeoff () =
  let nearest = Experiments.Kvstore_exp.run ~seed:4 ~duration:30. Experiments.Kvstore_exp.Nearest in
  let primary =
    Experiments.Kvstore_exp.run ~seed:4 ~duration:30. Experiments.Kvstore_exp.Primary_only
  in
  checkb "nearest is faster" true
    (nearest.Experiments.Kvstore_exp.mean_read_ms < primary.Experiments.Kvstore_exp.mean_read_ms);
  checkb "primary is fresher or equal" true
    (primary.Experiments.Kvstore_exp.mean_staleness
    <= nearest.Experiments.Kvstore_exp.mean_staleness +. 0.05)

let () =
  Alcotest.run "kvstore"
    [
      ( "replication",
        [
          Alcotest.test_case "writes replicate" `Quick test_writes_replicate;
          Alcotest.test_case "reads complete" `Quick test_reads_complete;
          Alcotest.test_case "monotonic reads" `Quick test_monotonic_reads_hold_for_sane_policies;
          Alcotest.test_case "out-of-order applies" `Quick test_apply_out_of_order_buffered;
        ] );
      ( "resolvers",
        [
          Alcotest.test_case "primary" `Quick test_primary_resolver;
          Alcotest.test_case "nearest" `Quick test_nearest_resolver;
          Alcotest.test_case "session" `Quick test_session_resolver;
          Alcotest.test_case "session pinned table" `Quick test_session_resolver_table;
          Alcotest.test_case "logged read size" `Quick test_logged_read_size;
        ] );
      ("experiment", [ Alcotest.test_case "tradeoff" `Slow test_experiment_tradeoff ]);
    ]
