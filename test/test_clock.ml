(* Per-node clock skew: the Dsim.Clock segment arithmetic, the engine's
   local-time timer semantics (re-anchoring, clamping, FD/breaker
   feeds), clock faults in plans and chaos profiles, and the soundness
   of explorer dedup under skewed snapshots. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let nid = Proto.Node_id.of_int
let vt = Dsim.Vtime.of_seconds
let secs = Dsim.Vtime.to_seconds

module C = Dsim.Clock

(* ---------- Clock segment arithmetic ---------- *)

let test_identity () =
  let c = C.create () in
  checkb "identity" true (C.is_identity c);
  checkf "rate" 1. (C.rate c);
  checkf "read = global" 7.25 (secs (C.read c ~global:(vt 7.25)));
  checkf "skew 0" 0. (C.skew c ~global:(vt 100.));
  checki "fingerprint 0" 0 (C.fingerprint c)

let test_rate_continuity_and_inverse () =
  let c = C.create () in
  C.set_rate c ~global:(vt 10.) ~rate:1.5;
  (* Continuous at the boundary: local(10) is still 10. *)
  checkf "continuous at boundary" 10. (secs (C.local_of_global c (vt 10.)));
  checkf "runs fast after" 25. (secs (C.local_of_global c (vt 20.)));
  checkf "skew grows" 5. (C.skew c ~global:(vt 20.));
  (* global_of_local inverts the segment exactly. *)
  checkf "inverse" 20. (secs (C.global_of_local c (vt 25.)));
  checkf "inverse mid-segment" 14. (secs (C.global_of_local c (vt 16.)));
  (* Slowing down later stays continuous from the new anchor. *)
  C.set_rate c ~global:(vt 20.) ~rate:0.5;
  checkf "still continuous" 25. (secs (C.local_of_global c (vt 20.)));
  checkf "now runs slow" 30. (secs (C.local_of_global c (vt 30.)))

let test_step_and_heal () =
  let c = C.create () in
  C.step c ~global:(vt 5.) ~offset:2.;
  checkf "jumped forward" 9. (secs (C.local_of_global c (vt 7.)));
  checkb "skewed" true (not (C.is_identity c));
  checkb "fingerprint nonzero" true (C.fingerprint c <> 0);
  C.heal c ~global:(vt 7.);
  checkb "healed to identity" true (C.is_identity c);
  checki "healed fingerprint 0" 0 (C.fingerprint c);
  checkf "reads global again" 8. (secs (C.read c ~global:(vt 8.)))

let test_backwards_step_clamps_at_origin () =
  let c = C.create () in
  C.step c ~global:(vt 1.) ~offset:(-5.);
  (* Local time cannot precede the Vtime origin. *)
  checkf "clamped to zero" 0. (secs (C.local_of_global c (vt 1.)));
  checkf "resumes from zero" 2. (secs (C.local_of_global c (vt 3.)))

let test_monotonic_read () =
  let c = C.create ~monotonic:true () in
  checkf "reads forward" 10. (secs (C.read c ~global:(vt 10.)));
  C.step c ~global:(vt 10.) ~offset:(-4.);
  (* The raw segment went backwards; the monotonic read holds the
     watermark until raw local catches back up. *)
  checkf "raw segment dropped" 8. (secs (C.local_of_global c (vt 12.)));
  checkf "read held at watermark" 10. (secs (C.read c ~global:(vt 12.)));
  checkf "catches up" 11. (secs (C.read c ~global:(vt 15.)))

let test_fingerprints_distinguish () =
  let a = C.create () and b = C.create () in
  C.set_rate a ~global:(vt 0.) ~rate:1.25;
  C.set_rate b ~global:(vt 0.) ~rate:0.75;
  checkb "distinct rates, distinct fingerprints" true (C.fingerprint a <> C.fingerprint b);
  let c = C.copy a in
  checki "copy fingerprints alike" (C.fingerprint a) (C.fingerprint c);
  C.step c ~global:(vt 1.) ~offset:0.5;
  checkb "copy diverges independently" true
    (C.fingerprint a <> C.fingerprint c && C.is_identity a = false)

(* ---------- Engine: a two-node heartbeat app ---------- *)

module Beat = struct
  type msg = Ping

  type state = { self : Proto.Node_id.t; ticks : int; pings : int }

  let name = "beat"
  let equal_state (a : state) b = a = b
  let msg_kind Ping = "ping"
  let msg_bytes Ping = 32
  let msg_codec = None
  let validate = None
  let fingerprint = None
  let durable = None
  let degraded = None
  let priority = None
  let pp_msg ppf Ping = Format.fprintf ppf "ping"
  let pp_state ppf st = Format.fprintf ppf "{ticks=%d pings=%d}" st.ticks st.pings

  let peer self = nid (1 - Proto.Node_id.to_int self)

  let init (ctx : Proto.Ctx.t) =
    ( { self = ctx.self; ticks = 0; pings = 0 },
      [ Proto.Action.set_timer ~id:"beat" ~after:0.5 ] )

  let receive =
    [
      Proto.Handler.v ~name:"ping"
        ~guard:(fun _ ~src:_ _ -> true)
        (fun _ st ~src:_ Ping -> ({ st with pings = st.pings + 1 }, []));
    ]

  let on_timer _ctx st id : state * msg Proto.Action.t list =
    match id with
    | "beat" ->
        ( { st with ticks = st.ticks + 1 },
          [
            Proto.Action.send ~dst:(peer st.self) Ping;
            Proto.Action.set_timer ~id:"beat" ~after:0.5;
          ] )
    | _ -> (st, [])

  let properties : (state, msg) Proto.View.t Core.Property.t list = []
  let objectives : (state, msg) Proto.View.t Core.Objective.t list = []
  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Beat)

let topology = Net.Topology.uniform ~n:2 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let make ?(seed = 11) () =
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.spawn eng (nid 0);
  E.spawn eng (nid 1);
  eng

let ticks eng i =
  match E.state_of eng (nid i) with
  | Some s -> s.Beat.ticks
  | None -> Alcotest.fail "node missing"

(* With every clock at the identity — whether because the table was
   never created or because an entry was explicitly set to rate 1 — a
   seeded run is byte-identical to one without the clock layer. *)
let test_identity_entries_change_nothing () =
  let plain = make () in
  E.run_for plain 20.;
  let instrumented = make () in
  E.set_clock_rate instrumented (nid 0) ~rate:1.0;
  E.set_clock_rate instrumented (nid 1) ~rate:1.0;
  E.run_for instrumented 20.;
  checkb "stats byte-identical" true (E.stats plain = E.stats instrumented);
  checkf "same virtual now" (secs (E.now plain)) (secs (E.now instrumented));
  checki "same ticks node0" (ticks plain 0) (ticks instrumented 0);
  checki "same ticks node1" (ticks plain 1) (ticks instrumented 1);
  checkb "identity clocks publish no fingerprints" true
    (E.clock_fingerprints instrumented = [])

(* A fast clock's timers fire early in global time: 25% drift turns a
   0.5s-local beat into 0.4s of global time, pinning the trajectory. *)
let test_drift_trajectory_pinned () =
  let eng = make () in
  E.set_clock_rate eng (nid 0) ~rate:1.25;
  E.run_for eng 10.;
  checkf "skew after 10s" 2.5 (E.clock_skew eng (nid 0));
  checkf "local now" 12.5 (secs (E.local_now eng (nid 0)));
  checkf "peer stays in sync" 0. (E.clock_skew eng (nid 1));
  checki "fast node beat 25 times" 25 (ticks eng 0);
  checki "sync node beat 20 times" 20 (ticks eng 1);
  checkb "skew is fingerprinted" true
    (List.mem_assoc (nid 0) (E.clock_fingerprints eng)
    && not (List.mem_assoc (nid 1) (E.clock_fingerprints eng)));
  (* Healing ends the excursion with a discontinuity: local time snaps
     back from 12.5 to 10.0, so the pending beat (local deadline 13.0)
     is suddenly 3 seconds away instead of half a second. *)
  E.heal_clock eng (nid 0);
  checkf "healed skew" 0. (E.clock_skew eng (nid 0));
  checkb "healed fingerprint gone" true (E.clock_fingerprints eng = []);
  E.run_for eng 2.;
  checki "backward snap delayed the pending beat" 25 (ticks eng 0);
  E.run_for eng 1.2;
  checki "resumes on the global cadence" 26 (ticks eng 0)

(* A rate change mid-flight re-anchors pending timers: 3 remaining
   local seconds at rate 2 are 1.5 global seconds. *)
let test_rate_change_reanchors_pending_timer () =
  let eng = make () in
  (* Let both nodes arm their 0.5s beats, then slow node 0 sharply:
     its next beat (0.25s of local time away at the moment of the
     change) now takes 2.5s of global time. *)
  E.run_for eng 0.25;
  E.set_clock_rate eng (nid 0) ~rate:0.1;
  checki "not yet" 0 (ticks eng 0);
  E.run_for eng 2.;
  checki "slowed timer still pending" 0 (ticks eng 0);
  checki "sync node unaffected" 4 (ticks eng 1);
  E.run_for eng 1.;
  checki "fires once re-anchored" 1 (ticks eng 0)

(* A forward step that jumps over a pending local deadline clamps the
   timer to fire now and counts it. *)
let test_forward_step_clamps_pending_timer () =
  let eng = make () in
  E.run_for eng 0.25;
  checki "no clamps yet" 0 (E.stats eng).clock_clamped;
  E.clock_step eng (nid 0) ~offset:10.;
  (* The 0.5s beat deadline is now far in the node's past. *)
  checkb "clamp counted" true ((E.stats eng).clock_clamped >= 1);
  let before = ticks eng 0 in
  E.run_for eng 0.01;
  checkb "clamped timer fired immediately" true (ticks eng 0 > before)

let test_clock_fault_validation () =
  let eng = make () in
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Sim.set_clock_rate: rate must be positive and finite") (fun () ->
      E.set_clock_rate eng (nid 0) ~rate:0.);
  Alcotest.check_raises "nan offset" (Invalid_argument "Sim.clock_step: offset not finite")
    (fun () -> E.clock_step eng (nid 0) ~offset:Float.nan);
  (* Healing an untouched clock is idempotent, not an error. *)
  E.heal_clock eng (nid 0);
  checkb "idempotent heal" true (E.clock_fingerprints eng = [])

(* ---------- Failure detector under skew ---------- *)

(* A forward step on the observer manufactures apparent silence: its
   local clock says the peer has been quiet for 30s. Suspicion spikes
   toward a drifting-but-alive peer, then collapses after the clock
   heals and fresh heartbeats arrive. *)
let test_phi_accrual_skew_and_recovery () =
  let eng = make () in
  E.run_for eng 20.;
  let fd = E.failure_detector eng in
  let susp () =
    Net.Failure_detector.suspicion fd ~observer:0 ~peer:1
      ~now:(E.local_now eng (nid 0))
  in
  checkb "steady traffic, no suspicion" true (susp () < 0.1);
  E.clock_step eng (nid 0) ~offset:30.;
  checkb "stepped observer suspects live peer" true (susp () > 0.9);
  E.heal_clock eng (nid 0);
  E.run_for eng 10.;
  checkb "healed clock, suspicion collapses" true (susp () < 0.1)

(* ---------- Lease race under drift ---------- *)

(* The lease race is armed exactly when [expiry < hold_time + rtt] in
   {e real} (global) time. With expiry tuned just above that line the
   service is violation-free in sync — but a fast granter clock shrinks
   the effective expiry below the line, so the seeded bug fires
   strictly more often under drift, and more drift fires it more. *)
module Tight_params = struct
  let population = 4
  let want_period = 2.0
  let hold_time = 1.5

  (* hold + rtt = 1.6 at 0.05s latency: a 0.1s safety margin that 30%
     granter drift (effective expiry 1.31) eats straight through. *)
  let expiry = 1.7
end

module Tight = Apps.Lease.Make (Tight_params)
module TE = Engine.Sim.Make (Tight)

let test_nearly_safe_lease_fires_under_drift () =
  let run rate =
    let topology =
      Net.Topology.uniform ~n:4 (Net.Linkprop.v ~latency:0.05 ~bandwidth:1_000_000. ~loss:0.)
    in
    let eng = TE.create ~seed:3 ~jitter:0. ~topology () in
    TE.set_resolver eng Core.Resolver.random;
    for i = 0 to 3 do
      TE.spawn eng (nid i)
    done;
    if rate <> 1.0 then TE.set_clock_rate eng (nid 0) ~rate;
    TE.run_for eng 120.;
    List.length (TE.violations eng)
  in
  let sync = run 1.0 and drifted = run 1.3 and faster = run 1.5 in
  checki "safe while clocks agree" 0 sync;
  checkb "drift arms the latent race" true (drifted > 0);
  checkb "more drift, more double-grants" true (faster > drifted)

(* ---------- Circuit breaker time unification ---------- *)

(* [opened_at] is a Vtime instant now; a query clocked before the trip
   (a backwards-stepped local clock) must keep the pair open rather
   than wrap the elapsed time negative. *)
let test_breaker_backwards_now_stays_open () =
  let cb = Net.Circuit_breaker.create () in
  Net.Circuit_breaker.trip cb ~src:0 ~dst:1 ~now:(vt 10.);
  checkb "open at trip time" false (Net.Circuit_breaker.allow cb ~src:0 ~dst:1 ~now:(vt 10.));
  checkb "still open when asked about the past" false
    (Net.Circuit_breaker.allow cb ~src:0 ~dst:1 ~now:(vt 2.));
  checkb "state reads Open in the past" true
    (Net.Circuit_breaker.state cb ~src:0 ~dst:1 ~now:(vt 2.) = Net.Circuit_breaker.Open);
  checkb "half-opens after a real cooldown" true
    (Net.Circuit_breaker.allow cb ~src:0 ~dst:1 ~now:(vt 15.))

(* ---------- Fault plans and chaos profiles ---------- *)

let test_faultplan_clock_validation () =
  let module F = Engine.Faultplan in
  ignore
    (F.plan
       [
         (0., F.Set_clock_rate { node = 0; rate = 1.2 });
         (1., F.Clock_step { node = 0; offset = -0.5 });
         (2., F.Heal_clock { node = 0 });
       ]);
  Alcotest.check_raises "heal of never-skewed clock"
    (Invalid_argument "Faultplan.plan: heal of a clock never skewed") (fun () ->
      ignore (F.plan [ (0., F.Heal_clock { node = 3 }) ]));
  Alcotest.check_raises "non-positive rate"
    (Invalid_argument "Faultplan.plan: clock rate must be positive and finite") (fun () ->
      ignore (F.plan [ (0., F.Set_clock_rate { node = 0; rate = 0. }) ]));
  Alcotest.check_raises "non-finite offset"
    (Invalid_argument "Faultplan.plan: clock step offset not finite") (fun () ->
      ignore (F.plan [ (0., F.Clock_step { node = 0; offset = Float.infinity }) ]))

(* Clock knobs draw from the plan RNG only when on: switching them on
   adds clock events without perturbing any other fault's schedule. *)
let test_chaos_drift_knobs_preserve_rng_stream () =
  let module Ch = Engine.Chaos in
  let module F = Engine.Faultplan in
  let base = Ch.default_profile in
  let drifty = { base with Ch.drift_nodes = 2; clock_steps = 1 } in
  let is_clock_event = function
    | F.Set_clock_rate _ | F.Clock_step _ | F.Heal_clock _ -> true
    | _ -> false
  in
  let p0 = F.events (Ch.generate ~seed:5 ~nodes:5 base) in
  let p1 = F.events (Ch.generate ~seed:5 ~nodes:5 drifty) in
  checkb "no clock events while off" true (not (List.exists (fun (_, e) -> is_clock_event e) p0));
  let p1_rest = List.filter (fun (_, e) -> not (is_clock_event e)) p1 in
  checkb "other faults byte-identical" true (p0 = p1_rest);
  let skews = List.filter (fun (_, e) -> is_clock_event e) p1 in
  checki "two drifts and one step, each healed" 6 (List.length skews)

let test_chaos_validates_clock_knobs () =
  let module Ch = Engine.Chaos in
  Alcotest.check_raises "drift rate of 1 would stop a clock"
    (Invalid_argument "Chaos.generate: drift rate outside [0,1)") (fun () ->
      ignore
        (Ch.generate ~seed:1 ~nodes:3
           { Ch.default_profile with Ch.drift_nodes = 1; drift_rate = 1. }));
  Alcotest.check_raises "negative step max"
    (Invalid_argument "Chaos.generate: clock step max must be finite and non-negative")
    (fun () ->
      ignore
        (Ch.generate ~seed:1 ~nodes:3
           { Ch.default_profile with Ch.clock_steps = 1; clock_step_max = -1. }))

(* ---------- Explorer dedup under skewed snapshots ---------- *)

module Lock = Test_support.Lock_app
module Ex = Mc.Explorer.Make (Lock)

let lock_world ?(clocks = []) states pending : Ex.world =
  {
    states =
      List.fold_left
        (fun m (i, holding) -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding } m)
        Proto.Node_id.Map.empty states;
    pending = List.map (fun (a, b, m) -> (nid a, nid b, m)) pending;
    timers = [];
    clocks = List.map (fun (i, fp) -> (nid i, fp)) clocks;
  }

(* Two snapshots that differ only in clock state land in different
   dedup classes: exploring their union from a shared frontier must
   not collapse them. Verdicts themselves are clock-independent
   (exploration is untimed), so results agree — only identity
   differs. *)
let test_explorer_keeps_skewed_worlds_apart () =
  let states = [ (0, true); (1, false) ] in
  let pending = [ (0, 1, Lock.Grant) ] in
  let sync = lock_world states pending in
  let skewed = lock_world ~clocks:[ (0, 0xbeef) ] states pending in
  let r_sync = Ex.explore ~depth:2 sync in
  let r_skew = Ex.explore ~depth:2 skewed in
  checki "same worlds explored" r_sync.Ex.worlds_explored r_skew.Ex.worlds_explored;
  checki "same violations" (List.length r_sync.Ex.violations) (List.length r_skew.Ex.violations)

(* The clock lane of the fingerprint lives in the explore call alone:
   pools of 1 and 4 fresh domains, each domain exploring the skewed
   world at the same time, agree on every verdict and counter. *)
let test_explorer_pool_sizes_agree_on_skewed_world () =
  let w =
    lock_world
      ~clocks:[ (0, 0x1234); (1, 0x5678) ]
      [ (0, false); (1, false); (2, false) ]
      [ (0, 1, Lock.Grant); (1, 2, Lock.Grant); (2, 0, Lock.Flip) ]
  in
  let on_pool n =
    List.map Domain.join (List.init n (fun _ -> Domain.spawn (fun () -> Ex.explore ~depth:4 w)))
  in
  let r1 = List.hd (on_pool 1) in
  List.iter
    (fun r4 ->
      checki "worlds explored agree" r1.Ex.worlds_explored r4.Ex.worlds_explored;
      checki "worlds deduped agree" r1.Ex.worlds_deduped r4.Ex.worlds_deduped;
      checkb "violations agree" true (r1.Ex.violations = r4.Ex.violations);
      checkb "truncation agrees" true (r1.Ex.truncated = r4.Ex.truncated))
    (on_pool 4)

let () =
  Alcotest.run "clock"
    [
      ( "segments",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "rate continuity and inverse" `Quick
            test_rate_continuity_and_inverse;
          Alcotest.test_case "step and heal" `Quick test_step_and_heal;
          Alcotest.test_case "backwards step clamps" `Quick test_backwards_step_clamps_at_origin;
          Alcotest.test_case "monotonic read" `Quick test_monotonic_read;
          Alcotest.test_case "fingerprints distinguish" `Quick test_fingerprints_distinguish;
        ] );
      ( "engine",
        [
          Alcotest.test_case "identity entries change nothing" `Quick
            test_identity_entries_change_nothing;
          Alcotest.test_case "drift trajectory pinned" `Quick test_drift_trajectory_pinned;
          Alcotest.test_case "rate change re-anchors" `Quick
            test_rate_change_reanchors_pending_timer;
          Alcotest.test_case "forward step clamps timer" `Quick
            test_forward_step_clamps_pending_timer;
          Alcotest.test_case "fault validation" `Quick test_clock_fault_validation;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "phi-accrual skew and recovery" `Quick
            test_phi_accrual_skew_and_recovery;
          Alcotest.test_case "lease bug fires more under drift" `Quick
            test_nearly_safe_lease_fires_under_drift;
          Alcotest.test_case "breaker survives backwards now" `Quick
            test_breaker_backwards_now_stays_open;
        ] );
      ( "plans",
        [
          Alcotest.test_case "faultplan clock validation" `Quick test_faultplan_clock_validation;
          Alcotest.test_case "chaos knobs preserve RNG stream" `Quick
            test_chaos_drift_knobs_preserve_rng_stream;
          Alcotest.test_case "chaos validates clock knobs" `Quick
            test_chaos_validates_clock_knobs;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "skewed worlds kept apart" `Quick
            test_explorer_keeps_skewed_worlds_apart;
          Alcotest.test_case "pool sizes agree" `Quick
            test_explorer_pool_sizes_agree_on_skewed_world;
        ] );
    ]
