(* Chaos soaks: every application rides out seeded random storms —
   crashes, partitions, degradations, duplication, corruption,
   reordering — with zero safety violations and post-storm recovery,
   reproducibly. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

module C = Engine.Chaos
module X = Experiments.Chaos_exp

let seeds = [ 1; 2; 3 ]

(* Every report is produced once and shared across test cases. *)
let reports =
  lazy
    (List.concat_map (fun app -> List.map (fun seed -> X.run ~seed app) seeds) X.apps)

let soak_case app =
  Alcotest.test_case app `Slow (fun () ->
      List.iter
        (fun (r : X.report) ->
          if String.equal r.X.app app then begin
            checki (Printf.sprintf "%s seed %d: no safety violation" app r.X.seed) 0
              r.X.violations;
            checkb (Printf.sprintf "%s seed %d: recovered" app r.X.seed) true r.X.recovered;
            checkb (Printf.sprintf "%s seed %d: storm was real" app r.X.seed) true
              (r.X.dropped > 0 || r.X.duplicated > 0 || r.X.corrupted > 0)
          end)
        (Lazy.force reports))

(* The corruption path must genuinely reach the decoder: across the
   soaks, some garbled message fails to parse (and is dropped, counted,
   with no exception escaping — the soaks above would have died
   otherwise). *)
let test_decode_failures_exercised () =
  let total =
    List.fold_left (fun acc (r : X.report) -> acc + r.X.decode_failures) 0 (Lazy.force reports)
  in
  checkb "some corrupted message failed decode" true (total > 0);
  let corrupted =
    List.fold_left (fun acc (r : X.report) -> acc + r.X.corrupted) 0 (Lazy.force reports)
  in
  checkb "decode failures are a subset of corruptions" true (total <= corrupted)

(* The reorder fault must genuinely shuffle deliveries: across the
   soaks (every profile schedules reorder windows), some message
   overtakes another and the engine counts it. *)
let test_reordering_exercised () =
  let total =
    List.fold_left (fun acc (r : X.report) -> acc + r.X.reordered) 0 (Lazy.force reports)
  in
  checkb "some message was reordered" true (total > 0)

(* ---------- self-healing under flapping partitions ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* Two 30s-half-period flap cycles against seed 1 cut off a 2-node
   minority twice; each cut lasts long enough for phi-accrual suspicion
   to fire (~18s of silence) and each heal long enough to clear it, so
   the expected degraded-mode trajectory is exact: both minority nodes
   enter and exit twice — 4 entries, 4 exits — and nobody is left
   degraded after the final heal. *)
let flap_soak name soak =
  Alcotest.test_case (name ^ " flap storm self-heals") `Slow (fun () ->
      let r : X.report = soak 1 in
      checki (name ^ ": safe through the flaps") 0 r.X.violations;
      checkb (name ^ ": recovered") true r.X.recovered;
      checkb (name ^ ": self-healed") true r.X.self_healed;
      checkb (name ^ ": heal observed") true (r.X.heal_time <> None);
      checki (name ^ ": degraded entries") 4 r.X.degraded_entries;
      checki (name ^ ": every entry exited") r.X.degraded_entries r.X.degraded_exits;
      checkb (name ^ ": reliable layer exercised") true (r.X.retransmits > 0);
      checkb (name ^ ": some sends exhausted their budget") true (r.X.giveups > 0))

(* The whole self-healing trajectory is a replayable witness: same
   seed, same suspicion counters, same retransmissions, byte-identical
   observability export. *)
let test_flap_obs_export_reproducible () =
  let export () =
    let sink = Obs.Sink.create () in
    let r = X.soak_paxos_flap ~obs:sink 2 in
    (r, String.concat "\n" (Obs.Registry.to_json_lines sink.Obs.Sink.registry))
  in
  let ra, ea = export () in
  let rb, eb = export () in
  checks "byte-identical obs export" ea eb;
  checki "same retransmit count" ra.X.retransmits rb.X.retransmits;
  checki "same degradation trajectory" ra.X.degraded_entries rb.X.degraded_entries;
  checkb "export carries retransmit counters" true (contains ea "engine_rel_retransmits");
  checkb "export carries degradation transitions" true
    (contains ea "engine_degraded_transitions");
  checkb "export carries detector recoveries" true (contains ea "engine_fd_recoveries")

(* ---------- determinism ---------- *)

let test_generate_deterministic () =
  let p = { C.default_profile with C.crashes = 3; partitions = 2; degrades = 2 } in
  let show plan = Format.asprintf "%a" Engine.Faultplan.pp plan in
  checks "same seed, same plan" (show (C.generate ~seed:42 ~nodes:10 p))
    (show (C.generate ~seed:42 ~nodes:10 p));
  checkb "different seed, different plan" true
    (not (String.equal (show (C.generate ~seed:42 ~nodes:10 p))
            (show (C.generate ~seed:43 ~nodes:10 p))))

let test_generate_respects_protect () =
  let p = { C.default_profile with C.crashes = 5; protect = [ 0; 1 ] } in
  List.iter
    (fun seed ->
      List.iter
        (function
          | _, Engine.Faultplan.Kill v ->
              checkb (Printf.sprintf "seed %d never kills protected %d" seed v) true (v > 1)
          | _ -> ())
        (Engine.Faultplan.events (C.generate ~seed ~nodes:6 p)))
    [ 1; 2; 3; 4; 5 ]

let test_generate_validation () =
  Alcotest.check_raises "no nodes" (Invalid_argument "Chaos.generate: no nodes") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:0 C.default_profile));
  Alcotest.check_raises "bad storm" (Invalid_argument "Chaos.generate: non-positive storm")
    (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.storm = 0. }));
  Alcotest.check_raises "negative flaps"
    (Invalid_argument "Chaos.generate: negative flap count") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.flaps = -1 }));
  Alcotest.check_raises "bad flap period"
    (Invalid_argument "Chaos.generate: non-positive flap period") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.flap_period = 0. }));
  Alcotest.check_raises "negative gray links"
    (Invalid_argument "Chaos.generate: negative gray link count") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.gray_links = -1 }));
  Alcotest.check_raises "bad gray loss"
    (Invalid_argument "Chaos.generate: gray loss outside [0,1]") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.gray_loss = 1.5 }));
  (* Channel-fault rates are rejected by name: a NaN rate silently
     disables the fault (every comparison with NaN is false), a negative
     one would surface as a baffling error deep inside Faultplan. *)
  Alcotest.check_raises "NaN duplicate rate"
    (Invalid_argument "Chaos.generate: duplicate rate is NaN") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.duplicate_rate = Float.nan }));
  Alcotest.check_raises "negative corrupt rate"
    (Invalid_argument "Chaos.generate: negative corrupt rate") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.corrupt_rate = -0.1 }));
  Alcotest.check_raises "negative reorder rate"
    (Invalid_argument "Chaos.generate: negative reorder rate") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.reorder_rate = -1. }));
  Alcotest.check_raises "NaN overload rate"
    (Invalid_argument "Chaos.generate: overload rate is NaN") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.overload_rate = Float.nan }));
  Alcotest.check_raises "negative overload nodes"
    (Invalid_argument "Chaos.generate: negative overload node count") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.overload_nodes = -1 }));
  Alcotest.check_raises "bad overload period"
    (Invalid_argument "Chaos.generate: overload period must be positive") (fun () ->
      ignore (C.generate ~seed:1 ~nodes:4 { C.default_profile with C.overload_period = 0. }));
  Alcotest.check_raises "overload burst at zero rate"
    (Invalid_argument "Chaos.generate: overload rate must be positive") (fun () ->
      ignore
        (C.generate ~seed:1 ~nodes:4
           { C.default_profile with C.overload_nodes = 1; overload_rate = 0. }))

let test_generate_overload_bursts () =
  let p =
    { C.default_profile with C.overload_nodes = 2; overload_rate = 800.; overload_period = 1.5 }
  in
  let evs = List.map snd (Engine.Faultplan.events (C.generate ~seed:5 ~nodes:6 p)) in
  let count f = List.length (List.filter f evs) in
  checki "every burst opened" 2
    (count (function Engine.Faultplan.Overload _ -> true | _ -> false));
  checki "every burst healed" 2
    (count (function Engine.Faultplan.Heal_overload _ -> true | _ -> false));
  List.iter
    (function
      | Engine.Faultplan.Overload { rate; _ } ->
          Alcotest.check (Alcotest.float 0.) "rate as configured" 800. rate
      | _ -> ())
    evs;
  (* Bursts off: not a single overload event, and the rest of the plan
     is untouched (the knob draws no randomness when disabled). *)
  let off = List.map snd (Engine.Faultplan.events (C.generate ~seed:5 ~nodes:6 C.default_profile)) in
  checki "no bursts when disabled" 0
    (List.length
       (List.filter (function Engine.Faultplan.Overload _ -> true | _ -> false) off))

let test_generate_flap_and_gray () =
  let p =
    {
      C.default_profile with
      C.flaps = 2;
      flap_period = 10.;
      gray_links = 2;
      gray_loss = 0.4;
      storm = 60.;
    }
  in
  let evs = List.map snd (Engine.Faultplan.events (C.generate ~seed:5 ~nodes:6 p)) in
  let count f = List.length (List.filter f evs) in
  checki "one flap event" 1
    (count (function Engine.Faultplan.Flap _ -> true | _ -> false));
  List.iter
    (function
      | Engine.Faultplan.Flap { period; cycles; _ } ->
          Alcotest.check (Alcotest.float 0.) "period as configured" 10. period;
          checkb "cycles clamped to fit the storm" true (cycles >= 1 && cycles <= 2)
      | Engine.Faultplan.Gray_link { loss; _ } ->
          Alcotest.check (Alcotest.float 0.) "gray loss as configured" 0.4 loss
      | _ -> ())
    evs;
  checki "every gray link opened" 2
    (count (function Engine.Faultplan.Gray_link _ -> true | _ -> false));
  checki "every gray link healed" 2
    (count (function Engine.Faultplan.Heal_gray _ -> true | _ -> false))

let test_pp_profile_shows_new_knobs () =
  let p = { C.default_profile with C.flaps = 3; gray_links = 1; overload_nodes = 2 } in
  let s = Format.asprintf "%a" C.pp_profile p in
  checkb "flap knob printed" true (contains s "flap=3");
  checkb "gray knob printed" true (contains s "gray=1");
  checkb "overload knob printed" true (contains s "overload=2")

(* A soak with injection bursts: the bounded queues installed by the
   harness must hold their high-water mark at capacity, and the backlog
   must be gone by the end of grace. *)
let overload_soak name run_it =
  Alcotest.test_case (name ^ " overload soak sheds bounded and recovers") `Slow (fun () ->
      let r = run_it 11 in
      checki (name ^ " safe under overload") 0 r.X.violations;
      checkb (name ^ " shed something") true (r.X.sheds > 0);
      checkb (name ^ " never exceeded capacity") true r.X.shed_bounded;
      checkb (name ^ " drained after the bursts") true r.X.overload_recovered)

(* Same seed + profile -> the identical storm, the identical verdict,
   the identical traffic: the whole soak is a replayable witness. *)
let test_replay_bit_identical () =
  let a = X.run ~seed:7 "kvstore" and b = X.run ~seed:7 "kvstore" in
  checks "identical plan" a.X.plan_text b.X.plan_text;
  checki "identical violation count" a.X.violations b.X.violations;
  checki "identical deliveries" a.X.delivered b.X.delivered;
  checki "identical corruptions" a.X.corrupted b.X.corrupted;
  checkb "identical verdict" true (Bool.equal a.X.recovered b.X.recovered)

let test_scale_grows_profile () =
  let p = X.scale 2. C.default_profile in
  checkb "longer storm" true (p.C.storm > C.default_profile.C.storm);
  checkb "more crashes" true (p.C.crashes >= C.default_profile.C.crashes);
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Chaos_exp.scale: non-positive factor") (fun () ->
      ignore (X.scale 0. C.default_profile))

(* [failed] is the CLI's exit verdict: each failing column alone fails
   the soak, a node left degraded included. *)
let test_failed_verdict () =
  let ok = X.run ~seed:42 "randtree" in
  checkb "a clean soak passes" false (X.failed ok);
  checkb "still degraded fails" true (X.failed { ok with X.self_healed = false });
  checkb "a violation fails" true (X.failed { ok with X.violations = 1 });
  checkb "stuck fails" true (X.failed { ok with X.recovered = false });
  checkb "overrun fails" true (X.failed { ok with X.shed_bounded = false });
  checkb "backlogged fails" true (X.failed { ok with X.overload_recovered = false })

let () =
  Alcotest.run "chaos"
    [
      ("soak", List.map soak_case X.apps);
      ( "self-healing",
        [
          flap_soak "paxos" (fun seed -> X.soak_paxos_flap seed);
          flap_soak "kvstore" (fun seed -> X.soak_kvstore_flap seed);
          Alcotest.test_case "obs export is reproducible" `Slow
            test_flap_obs_export_reproducible;
        ] );
      ( "overload",
        [
          overload_soak "kvstore" (fun seed -> X.run ~overload:2 ~seed "kvstore");
          overload_soak "paxos" (fun seed -> X.run ~overload:2 ~seed "paxos");
        ] );
      ( "engine",
        [
          Alcotest.test_case "decode failures exercised" `Slow test_decode_failures_exercised;
          Alcotest.test_case "reordering exercised" `Slow test_reordering_exercised;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "generate is seed-deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "protect respected" `Quick test_generate_respects_protect;
          Alcotest.test_case "generate validation" `Quick test_generate_validation;
          Alcotest.test_case "flap and gray generation" `Quick test_generate_flap_and_gray;
          Alcotest.test_case "overload burst generation" `Quick test_generate_overload_bursts;
          Alcotest.test_case "profile pp shows new knobs" `Quick
            test_pp_profile_shows_new_knobs;
          Alcotest.test_case "replay is bit-identical" `Slow test_replay_bit_identical;
          Alcotest.test_case "profile scaling" `Quick test_scale_grows_profile;
          Alcotest.test_case "failed verdict" `Quick test_failed_verdict;
        ] );
    ]
