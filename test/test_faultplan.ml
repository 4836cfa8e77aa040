(* Tests for the declarative fault-schedule DSL, executed against the
   lock toy app. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module Lock = Test_support.Lock_app
module E = Engine.Sim.Make (Lock)
module F = Engine.Faultplan
module Run = F.Run (E)

let topology =
  Net.Topology.uniform ~n:4 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

let make () =
  let eng = E.create ~seed:2 ~jitter:0. ~topology () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to 3 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.1;
  eng

(* ---------- plan structure ---------- *)

let test_plan_sorting () =
  let p = F.plan [ (5., F.Kill 1); (1., F.Restart 2); (3., F.Kill 0) ] in
  Alcotest.check (Alcotest.list (Alcotest.float 0.)) "sorted times" [ 1.; 3.; 5. ]
    (List.map fst (F.events p));
  Alcotest.check (Alcotest.float 0.) "duration" 5. (F.duration p)

let test_plan_invalid () =
  Alcotest.check_raises "negative time" (Invalid_argument "Faultplan.plan: negative time")
    (fun () -> ignore (F.plan [ (-1., F.Kill 0) ]))

let test_plan_pp () =
  let p = F.plan [ (1., F.Partition ([ 0; 1 ], [ 2; 3 ])) ] in
  let s = Format.asprintf "%a" F.pp p in
  checkb "printable" true (String.length s > 10)

(* ---------- validation ---------- *)

let invalid name msg mk =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (F.plan (mk ()))))

let validation_cases =
  [
    invalid "overlapping partition" "Faultplan.plan: partition groups overlap" (fun () ->
        [ (0., F.Partition ([ 0; 1 ], [ 1; 2 ])) ]);
    invalid "zero latency factor" "Faultplan.plan: non-positive degrade factor" (fun () ->
        [ (0., F.Degrade { endpoint = 1; latency_factor = 0.; bandwidth_factor = 0.5 }) ]);
    invalid "negative bandwidth factor" "Faultplan.plan: non-positive degrade factor" (fun () ->
        [ (0., F.Degrade { endpoint = 1; latency_factor = 2.; bandwidth_factor = -1. }) ]);
    invalid "duplicate rate above 1" "Faultplan.plan: duplicate rate 2 outside [0,1]" (fun () ->
        [ (0., F.Set_duplicate { rate = 2.; copies = 1 }) ]);
    invalid "duplicate without copies" "Faultplan.plan: duplicate copies < 1" (fun () ->
        [ (0., F.Set_duplicate { rate = 0.5; copies = 0 }) ]);
    invalid "negative corrupt flip" "Faultplan.plan: corrupt flip rate -0.1 outside [0,1]"
      (fun () -> [ (0., F.Set_corrupt { rate = 0.5; flip = -0.1 }) ]);
    invalid "negative reorder window" "Faultplan.plan: negative reorder window" (fun () ->
        [ (0., F.Set_reorder { rate = 0.5; window = -1. }) ]);
    invalid "empty crash storm" "Faultplan.plan: empty crash storm" (fun () ->
        [ (0., F.Crash_storm { victims = 0; period = 1.; rounds = 2; mode = F.Clean }) ]);
    invalid "zero-period crash storm" "Faultplan.plan: non-positive storm period" (fun () ->
        [ (0., F.Crash_storm { victims = 1; period = 0.; rounds = 2; mode = F.Clean }) ]);
    invalid "overlapping flap groups" "Faultplan.plan: flap groups overlap" (fun () ->
        [ (0., F.Flap { a = [ 0; 1 ]; b = [ 1; 2 ]; period = 1.; cycles = 1 }) ]);
    invalid "zero-period flap" "Faultplan.plan: non-positive flap period" (fun () ->
        [ (0., F.Flap { a = [ 0 ]; b = [ 1 ]; period = 0.; cycles = 1 }) ]);
    invalid "zero-cycle flap" "Faultplan.plan: empty flap" (fun () ->
        [ (0., F.Flap { a = [ 0 ]; b = [ 1 ]; period = 1.; cycles = 0 }) ]);
    invalid "gray link to self" "Faultplan.plan: gray link to self" (fun () ->
        [ (0., F.Gray_link { src = 1; dst = 1; loss = 0.5 }) ]);
    invalid "gray loss above 1" "Faultplan.plan: gray loss 1.5 outside [0,1]" (fun () ->
        [ (0., F.Gray_link { src = 0; dst = 1; loss = 1.5 }) ]);
    invalid "bare heal" "Faultplan.plan: heal of a partition never opened" (fun () ->
        [ (1., F.Heal_partition ([ 0; 1 ], [ 2; 3 ])) ]);
    invalid "heal after heal" "Faultplan.plan: heal of a partition never opened" (fun () ->
        [
          (0., F.Partition ([ 0 ], [ 1 ]));
          (1., F.Heal_partition ([ 0 ], [ 1 ]));
          (2., F.Heal_partition ([ 0 ], [ 1 ]));
        ]);
    invalid "overlapping partition windows" "Faultplan.plan: overlapping partition windows"
      (fun () ->
        [
          (0., F.Partition ([ 0; 1 ], [ 2; 3 ]));
          (1., F.Partition ([ 1; 0 ], [ 3; 2 ]));
          (2., F.Heal_partition ([ 0; 1 ], [ 2; 3 ]));
        ]);
    invalid "flap inside open partition" "Faultplan.plan: overlapping partition windows"
      (fun () ->
        [
          (0., F.Partition ([ 0 ], [ 1 ]));
          (1., F.Flap { a = [ 0 ]; b = [ 1 ]; period = 1.; cycles = 1 });
          (5., F.Heal_partition ([ 0 ], [ 1 ]));
        ]);
    invalid "zero overload rate" "Faultplan.plan: overload rate must be positive and finite"
      (fun () -> [ (0., F.Overload { node = 1; rate = 0. }) ]);
    invalid "infinite overload rate" "Faultplan.plan: overload rate must be positive and finite"
      (fun () -> [ (0., F.Overload { node = 1; rate = Float.infinity }) ]);
    invalid "overlapping overload windows" "Faultplan.plan: overlapping overload windows"
      (fun () ->
        [
          (0., F.Overload { node = 1; rate = 100. });
          (1., F.Overload { node = 1; rate = 200. });
          (2., F.Heal_overload { node = 1 });
        ]);
    invalid "bare heal_overload" "Faultplan.plan: heal of an overload never started" (fun () ->
        [ (1., F.Heal_overload { node = 1 }) ]);
  ]

let test_overload_plan_accepted () =
  (* Sequential windows on one node, concurrent windows on distinct
     nodes: both legal; pp names every event. *)
  let p =
    F.plan
      [
        (0., F.Overload { node = 1; rate = 500. });
        (1., F.Heal_overload { node = 1 });
        (2., F.Overload { node = 1; rate = 800. });
        (2., F.Overload { node = 2; rate = 300. });
        (4., F.Heal_overload { node = 1 });
        (4., F.Heal_overload { node = 2 });
      ]
  in
  checki "all six events kept" 6 (List.length (F.events p));
  let s = Format.asprintf "%a" F.pp p in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "pp shows the burst" true (contains s "overload(1, 500/s)");
  checkb "pp shows the heal" true (contains s "heal_overload(2)")

let test_overload_runs_against_engine () =
  let eng = make () in
  let p =
    F.plan [ (0.5, F.Overload { node = 2; rate = 400. }); (2., F.Heal_overload { node = 2 }) ]
  in
  Run.execute eng p;
  E.run_for eng 4.;
  let s = E.stats eng in
  checkb "chaff flowed through the engine" true (s.chaff_sent > 0);
  checkb "burst stopped at the heal" true (s.chaff_sent < 1000)

let test_heal_matches_up_to_ordering () =
  (* Group pairs are normalized: scrambled element order and swapped
     sides still close the window they opened. *)
  let p =
    F.plan
      [
        (0., F.Partition ([ 0; 1 ], [ 2; 3 ]));
        (1., F.Heal_partition ([ 3; 2 ], [ 1; 0 ]));
        (2., F.Partition ([ 0; 1 ], [ 2; 3 ]));
        (3., F.Heal_partition ([ 0; 1 ], [ 2; 3 ]));
      ]
  in
  checki "sequential windows accepted" 4 (List.length (F.events p))

let test_valid_plan_accepted () =
  let p =
    F.plan
      [
        (0., F.Set_duplicate { rate = 0.1; copies = 2 });
        (0., F.Set_corrupt { rate = 0.; flip = 0. });
        (1., F.Crash_storm { victims = 1; period = 0.5; rounds = 2; mode = F.Clean });
      ]
  in
  checki "kept all events" 3 (List.length (F.events p))

(* ---------- execution ---------- *)

let test_kill_restart_schedule () =
  let eng = make () in
  Run.execute ~and_then:0.5 eng
    (F.plan [ (0.5, F.Kill 2); (1.5, F.Restart 2) ]);
  checkb "node back" true (E.alive eng (nid 2));
  (* Timeline respected: total elapsed = 0.1 (setup) + 1.5 + 0.5. *)
  Alcotest.check (Alcotest.float 1e-6) "clock" 2.1 (Dsim.Vtime.to_seconds (E.now eng))

let test_kill_takes_effect_at_time () =
  let eng = make () in
  Run.execute eng (F.plan [ (0.5, F.Kill 2) ]);
  checkb "dead after plan" false (E.alive eng (nid 2))

let test_partition_blocks_and_heals () =
  let eng = make () in
  Run.execute eng (F.plan [ (0.1, F.Partition ([ 0; 1 ], [ 2; 3 ])) ]);
  E.inject eng ~src:(nid 0) ~dst:(nid 2) Lock.Grant;
  E.run_for eng 1.;
  checkb "cut blocks" true
    (match E.state_of eng (nid 2) with Some st -> not st.Lock.holding | None -> false);
  (* A bare heal no longer validates; the healing plan re-cuts the
     (already cut, so it's a no-op) pair to own its whole window. *)
  Run.execute eng
    (F.plan
       [ (0., F.Partition ([ 0; 1 ], [ 2; 3 ])); (0.1, F.Heal_partition ([ 0; 1 ], [ 2; 3 ])) ]);
  E.inject eng ~src:(nid 0) ~dst:(nid 2) Lock.Grant;
  E.run_for eng 1.;
  checkb "heal restores" true
    (match E.state_of eng (nid 2) with Some st -> st.Lock.holding | None -> false)

let test_degrade_and_restore () =
  let eng = make () in
  let base = (Net.Netem.path (E.netem eng) ~src:0 ~dst:1).Net.Linkprop.latency in
  Run.execute eng
    (F.plan [ (0.1, F.Degrade { endpoint = 1; latency_factor = 10.; bandwidth_factor = 0.1 }) ]);
  let slowed = (Net.Netem.path (E.netem eng) ~src:0 ~dst:1).Net.Linkprop.latency in
  checkb "latency inflated" true (slowed > 5. *. base);
  Run.execute eng (F.plan [ (0.1, F.Restore 1) ]);
  let restored = (Net.Netem.path (E.netem eng) ~src:0 ~dst:1).Net.Linkprop.latency in
  Alcotest.check (Alcotest.float 1e-9) "restored" base restored

let test_set_faults_events () =
  let eng = make () in
  Run.execute eng
    (F.plan
       [
         (0., F.Set_duplicate { rate = 0.2; copies = 3 });
         (0., F.Set_corrupt { rate = 0.1; flip = 0.05 });
         (0., F.Set_reorder { rate = 0.3; window = 0.4 });
       ]);
  let f = Net.Netem.global_faults (E.netem eng) in
  Alcotest.check (Alcotest.float 0.) "duplicate rate" 0.2 f.Net.Netem.duplicate_rate;
  checki "duplicate copies" 3 f.Net.Netem.duplicate_copies;
  Alcotest.check (Alcotest.float 0.) "corrupt rate" 0.1 f.Net.Netem.corrupt_rate;
  Alcotest.check (Alcotest.float 0.) "corrupt flip" 0.05 f.Net.Netem.corrupt_flip;
  Alcotest.check (Alcotest.float 0.) "reorder rate" 0.3 f.Net.Netem.reorder_rate;
  Alcotest.check (Alcotest.float 0.) "reorder window" 0.4 f.Net.Netem.reorder_window;
  (* Zero rates switch the faults back off without disturbing the rest. *)
  Run.execute eng (F.plan [ (0., F.Set_corrupt { rate = 0.; flip = 0. }) ]);
  let f = Net.Netem.global_faults (E.netem eng) in
  Alcotest.check (Alcotest.float 0.) "corrupt off" 0. f.Net.Netem.corrupt_rate;
  Alcotest.check (Alcotest.float 0.) "duplicate untouched" 0.2 f.Net.Netem.duplicate_rate

let test_crash_storm_revives_everyone () =
  let eng = make () in
  let before = Dsim.Vtime.to_seconds (E.now eng) in
  Run.execute eng (F.plan [ (0., F.Crash_storm { victims = 2; period = 0.4; rounds = 3; mode = F.Clean }) ]);
  for i = 0 to 3 do
    checkb (Printf.sprintf "node %d alive after storm" i) true (E.alive eng (nid i))
  done;
  (* The storm occupies rounds * period of schedule time. *)
  checkb "storm consumed its window" true
    (Dsim.Vtime.to_seconds (E.now eng) -. before >= 3. *. 0.4 -. 1e-9)

let test_flap_consumes_window_and_heals () =
  let eng = make () in
  let before = Dsim.Vtime.to_seconds (E.now eng) in
  Run.execute eng
    (F.plan [ (0., F.Flap { a = [ 0; 1 ]; b = [ 2; 3 ]; period = 0.5; cycles = 3 }) ]);
  (* Each cycle is cut + heal, a half-period apiece. *)
  checkb "flap consumed its window" true
    (Dsim.Vtime.to_seconds (E.now eng) -. before >= 3. *. 2. *. 0.5 -. 1e-9);
  E.inject eng ~src:(nid 0) ~dst:(nid 2) Lock.Grant;
  E.run_for eng 1.;
  checkb "link healthy after flap" true
    (match E.state_of eng (nid 2) with Some st -> st.Lock.holding | None -> false)

let test_gray_link_is_asymmetric () =
  let eng = make () in
  Run.execute eng (F.plan [ (0., F.Gray_link { src = 0; dst = 2; loss = 1. }) ]);
  E.inject eng ~src:(nid 0) ~dst:(nid 2) Lock.Grant;
  E.run_for eng 1.;
  checkb "lossy direction drops" true
    (match E.state_of eng (nid 2) with Some st -> not st.Lock.holding | None -> false);
  E.inject eng ~src:(nid 2) ~dst:(nid 0) Lock.Grant;
  E.run_for eng 1.;
  checkb "reverse direction clean" true
    (match E.state_of eng (nid 0) with Some st -> st.Lock.holding | None -> false);
  Run.execute eng (F.plan [ (0., F.Heal_gray { src = 0; dst = 2 }) ]);
  E.inject eng ~src:(nid 0) ~dst:(nid 2) Lock.Grant;
  E.run_for eng 1.;
  checkb "healed direction delivers" true
    (match E.state_of eng (nid 2) with Some st -> st.Lock.holding | None -> false)

let test_restart_idempotent () =
  let eng = make () in
  (* A restart of a node that is already alive must be a no-op, so
     composed schedules can't crash the executor. *)
  Run.execute eng (F.plan [ (0.1, F.Restart 1) ]);
  checkb "still alive" true (E.alive eng (nid 1))

let test_empty_plan_is_noop () =
  let eng = make () in
  let before = Dsim.Vtime.to_seconds (E.now eng) in
  Run.execute eng (F.plan []);
  Alcotest.check (Alcotest.float 1e-9) "time unchanged" before
    (Dsim.Vtime.to_seconds (E.now eng));
  checki "duration 0" 0 (int_of_float (F.duration (F.plan [])))

let () =
  Alcotest.run "faultplan"
    [
      ( "structure",
        [
          Alcotest.test_case "sorting" `Quick test_plan_sorting;
          Alcotest.test_case "invalid" `Quick test_plan_invalid;
          Alcotest.test_case "pp" `Quick test_plan_pp;
        ] );
      ( "validation",
        Alcotest.test_case "valid plan accepted" `Quick test_valid_plan_accepted
        :: Alcotest.test_case "heal matches up to ordering" `Quick
             test_heal_matches_up_to_ordering
        :: Alcotest.test_case "overload plan accepted" `Quick test_overload_plan_accepted
        :: validation_cases );
      ( "execution",
        [
          Alcotest.test_case "kill/restart schedule" `Quick test_kill_restart_schedule;
          Alcotest.test_case "kill timing" `Quick test_kill_takes_effect_at_time;
          Alcotest.test_case "partition" `Quick test_partition_blocks_and_heals;
          Alcotest.test_case "degrade/restore" `Quick test_degrade_and_restore;
          Alcotest.test_case "channel fault events" `Quick test_set_faults_events;
          Alcotest.test_case "crash storm" `Quick test_crash_storm_revives_everyone;
          Alcotest.test_case "flap" `Quick test_flap_consumes_window_and_heals;
          Alcotest.test_case "gray link" `Quick test_gray_link_is_asymmetric;
          Alcotest.test_case "idempotent restart" `Quick test_restart_idempotent;
          Alcotest.test_case "overload burst" `Quick test_overload_runs_against_engine;
          Alcotest.test_case "empty plan" `Quick test_empty_plan_is_noop;
        ] );
    ]
