(* Tests for the CrystalBall-enabled runtime: checkpoint staleness,
   steering rounds, event-filter installation and expiry. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module Lock = Test_support.Lock_app
module R = Runtime.Crystal.Make (Lock)
module E = R.E

let topology =
  Net.Topology.uniform ~n:4 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

let all_neighbors (_ : Lock.state) = [ nid 0; nid 1; nid 2; nid 3 ]

let config =
  {
    Runtime.Config.default with
    Runtime.Config.checkpoint_period = 0.5;
    checkpoint_delay = 0.1;
    steer_period = 0.5;
    steer_depth = 2;
    filter_ttl = 3.0;
  }

let make ?(config = config) () =
  let eng = E.create ~seed:1 ~jitter:0. ~topology () in
  E.set_resolver eng Core.Resolver.first;
  let cry = R.attach ~config ~neighbors:all_neighbors eng in
  (eng, cry)

let spawn_all eng =
  for i = 0 to 3 do
    E.spawn eng (nid i)
  done

let test_checkpoint_staleness () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 0.3;
  (* A checkpoint was taken at ~0 but is only 0.3s old... wait: it
     becomes usable once checkpoint_delay (0.1s) has passed. *)
  checkb "usable after delay" true (R.latest_view cry <> None);
  let eng2, cry2 = make ~config:{ config with Runtime.Config.checkpoint_delay = 5.0 } () in
  spawn_all eng2;
  R.run_for cry2 1.0;
  checkb "not usable before delay" true (R.latest_view cry2 = None)

let test_neighborhood_view () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 1.0;
  (match R.neighborhood_view cry ~of_node:(nid 0) with
  | Some view ->
      checki "all four (own + neighbours)" 4 (Proto.View.node_count view);
      checkb "own state present" true (Proto.View.find view (nid 0) <> None)
  | None -> Alcotest.fail "expected a view");
  checkb "dead node has no view" true (R.neighborhood_view cry ~of_node:(nid 9) = None)

let test_steering_filters_offender () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 1.0;
  (* Node 0 takes the lock; a conflicting grant to node 1 is in flight
     with a long delay, giving the controller time to predict the
     violation and install a filter before it arrives. *)
  E.inject eng ~src:(nid 2) ~dst:(nid 0) Lock.Grant;
  R.run_for cry 0.5;
  E.inject eng ~after:2.0 ~src:(nid 3) ~dst:(nid 1) Lock.Grant;
  R.run_for cry 4.0;
  let report = R.report cry in
  checkb "steering ran" true (report.R.steering_rounds > 0);
  checkb "veto installed" true (report.R.vetoes_installed >= 1);
  checki "offending grant filtered" 1 (E.stats eng).messages_filtered;
  checki "no live violation" 0 (List.length (E.violations eng));
  checkb "verdicts logged" true (List.length (R.verdict_log cry) >= 1)

let test_filters_expire () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 1.0;
  E.inject eng ~src:(nid 2) ~dst:(nid 0) Lock.Grant;
  R.run_for cry 0.5;
  E.inject eng ~after:2.0 ~src:(nid 3) ~dst:(nid 1) Lock.Grant;
  R.run_for cry 4.0;
  checki "filtered while fresh" 1 (E.stats eng).messages_filtered;
  (* After the holder releases, the same kind of message is harmless;
     once the TTL passes the filter must be gone. *)
  E.inject eng ~src:(nid 2) ~dst:(nid 0) Lock.Release;
  R.run_for cry 5.0;
  E.inject eng ~src:(nid 3) ~dst:(nid 1) Lock.Grant;
  R.run_for cry 1.0;
  checkb "grant delivered after expiry" true
    (match E.state_of eng (nid 1) with Some st -> st.Lock.holding | None -> false)

let test_no_violation_no_vetoes () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 3.0;
  let report = R.report cry in
  checkb "rounds ran" true (report.R.steering_rounds >= 4);
  checki "nothing installed" 0 report.R.vetoes_installed;
  checki "nothing to report" 0 (List.length (R.verdict_log cry))

let test_report_counts () =
  let eng, cry = make () in
  spawn_all eng;
  R.run_for cry 2.6;
  let r = R.report cry in
  (* checkpoint at attach time plus one per period. *)
  checkb "checkpoints accumulate" true (r.R.checkpoints_taken >= 4);
  checkb "engine reachable" true (E.now (R.engine cry) = E.now eng)

(* A seeded steering run of the paper's lease service. Its report,
   verdict log and filtered-message count are pinned, so the way the
   runtime maintains the engine's filters cannot change what it
   steers. *)
module S = Experiments.Steering_exp

let render_verdicts log =
  String.concat "\n"
    (List.map
       (fun (at, v) ->
         Format.asprintf "%a %s" Dsim.Vtime.pp at
           (match v with
           | S.R.St.No_violation -> "none"
           | S.R.St.Steer vetoes ->
               String.concat "," (List.map (Format.asprintf "%a" S.R.St.pp_veto) vetoes)
           | S.R.St.Cannot_steer props -> "cannot:" ^ String.concat "," props))
       log)

let test_seeded_steering_pinned () =
  let eng = S.E.create ~seed:11 ~jitter:0. ~topology:S.topology () in
  S.E.set_resolver eng Core.Resolver.random;
  for i = 0 to S.population - 1 do
    S.E.spawn eng (nid i)
  done;
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.checkpoint_period = 0.1;
      checkpoint_delay = 0.05;
      steer_period = 0.1;
      steer_depth = 2;
      filter_ttl = 0.5;
    }
  in
  let cry = S.R.attach ~config ~neighbors:S.neighbors eng in
  S.R.run_for cry 60.;
  let r = S.R.report cry in
  checki "checkpoints" 500 r.S.R.checkpoints_taken;
  checki "rounds" 499 r.S.R.steering_rounds;
  checki "vetoes" 24 r.S.R.vetoes_installed;
  checki "cannot steer" 0 r.S.R.cannot_steer;
  checki "worlds" 5133 r.S.R.worlds_explored;
  checki "outcomes cached" 2951 r.S.R.outcomes_cached;
  checki "collisions" 0 r.S.R.fingerprint_collisions;
  let log = S.R.verdict_log cry in
  checki "verdicts" 181 (List.length log);
  Alcotest.check Alcotest.string "verdict log digest" "2faa6ba9bd39fa864432b040280226e8"
    (Digest.to_hex (Digest.string (render_verdicts log)));
  checki "filtered" 24 (S.E.stats eng).messages_filtered;
  checki "events" 277 (S.E.stats eng).events_processed;
  checki "violations" 0 (List.length (S.E.violations eng))

(* The same seeded lease run under clock faults: node 1's clock drifts
   from 15s, node 2's steps forward at 30s, and node 1 heals at 45s.
   Every change of the clock fingerprints reaches the explored worlds,
   so the report and verdict log pin how steering follows them. *)
let steer_config =
  {
    Runtime.Config.default with
    Runtime.Config.checkpoint_period = 0.1;
    checkpoint_delay = 0.05;
    steer_period = 0.1;
    steer_depth = 2;
    filter_ttl = 0.5;
  }

let lease_engine ~seed =
  let eng = S.E.create ~seed ~jitter:0. ~topology:S.topology () in
  S.E.set_resolver eng Core.Resolver.random;
  for i = 0 to S.population - 1 do
    S.E.spawn eng (nid i)
  done;
  eng

let run_summary eng cry =
  let r = S.R.report cry in
  let log = S.R.verdict_log cry in
  Printf.sprintf
    "checkpoints=%d rounds=%d vetoes=%d cannot=%d worlds=%d cached=%d collisions=%d bytes=%d \
     verdicts=%d log=%s filtered=%d events=%d violations=%d"
    r.S.R.checkpoints_taken r.S.R.steering_rounds r.S.R.vetoes_installed r.S.R.cannot_steer
    r.S.R.worlds_explored r.S.R.outcomes_cached r.S.R.fingerprint_collisions
    r.S.R.checkpoint_bytes (List.length log)
    (Digest.to_hex (Digest.string (render_verdicts log)))
    (S.E.stats eng).messages_filtered (S.E.stats eng).events_processed
    (List.length (S.E.violations eng))

let test_clock_faults_pinned () =
  let eng = lease_engine ~seed:11 in
  let cry = S.R.attach ~config:steer_config ~neighbors:S.neighbors eng in
  S.R.run_for cry 15.;
  S.E.set_clock_rate eng (nid 1) ~rate:1.3;
  S.R.run_for cry 15.;
  S.E.clock_step eng (nid 2) ~offset:0.4;
  S.R.run_for cry 15.;
  S.E.heal_clock eng (nid 1);
  S.R.run_for cry 15.;
  Alcotest.check Alcotest.string "clock-fault run"
    "checkpoints=500 rounds=499 vetoes=23 cannot=0 worlds=5315 cached=3197 collisions=0 bytes=0 verdicts=185 log=8ef9b981b7f2a6e1b3566fbf8c0aa016 filtered=23 events=278 violations=0"
    (run_summary eng cry)

(* With a state codec every checkpoint charges its bytes to the access
   links, so collection contends with the lease traffic. The lease
   state is abstract here; its printed form stands in for the wire
   bytes (the runtime only ever sizes checkpoints). *)
let test_codec_run_pinned () =
  let eng = lease_engine ~seed:5 in
  let codec =
    Wire.Codec.conv
      (Format.asprintf "%a" S.App.pp_state)
      (fun _ -> invalid_arg "checkpoint codec: encode only")
      Wire.Codec.string
  in
  let cry = S.R.attach ~config:steer_config ~codec ~neighbors:S.neighbors eng in
  S.R.run_for cry 60.;
  Alcotest.check Alcotest.string "codec run"
    "checkpoints=500 rounds=499 vetoes=20 cannot=0 worlds=5435 cached=3420 collisions=0 bytes=393796 verdicts=147 log=cd66574fce88e30f881a29fc1999488a filtered=20 events=273 violations=0"
    (run_summary eng cry)

let test_config_validation () =
  Alcotest.check_raises "bad period" (Invalid_argument "Config: checkpoint_period must be positive")
    (fun () ->
      ignore
        (Runtime.Config.validate
           { Runtime.Config.default with Runtime.Config.checkpoint_period = 0. }));
  Alcotest.check_raises "bad ttl" (Invalid_argument "Config: filter_ttl must be positive")
    (fun () ->
      ignore
        (Runtime.Config.validate { Runtime.Config.default with Runtime.Config.filter_ttl = -1. }))

let () =
  Alcotest.run "runtime"
    [
      ( "checkpoints",
        [
          Alcotest.test_case "staleness" `Quick test_checkpoint_staleness;
          Alcotest.test_case "neighborhood view" `Quick test_neighborhood_view;
        ] );
      ( "steering",
        [
          Alcotest.test_case "filters offender" `Quick test_steering_filters_offender;
          Alcotest.test_case "filters expire" `Quick test_filters_expire;
          Alcotest.test_case "quiet when safe" `Quick test_no_violation_no_vetoes;
          Alcotest.test_case "seeded run pinned" `Quick test_seeded_steering_pinned;
          Alcotest.test_case "clock faults pinned" `Quick test_clock_faults_pinned;
          Alcotest.test_case "codec run pinned" `Quick test_codec_run_pinned;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
