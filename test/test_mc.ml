(* Tests for consequence prediction and execution steering, using a toy
   mutual-exclusion protocol whose violations are easy to stage. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module Lock = Test_support.Lock_app

module Ex = Mc.Explorer.Make (Lock)
module St = Mc.Steering.Make (Lock)

let world ?(timers = []) states pending : Ex.world =
  {
    states =
      List.fold_left
        (fun m (i, holding) -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding } m)
        Proto.Node_id.Map.empty states;
    pending = List.map (fun (a, b, m) -> (nid a, nid b, m)) pending;
    timers = List.map (fun (i, id) -> (nid i, id)) timers;
    clocks = [];
  }

let explore ?include_drops ?generic_node ?depth:(d = 3) w =
  Ex.explore ?include_drops ?generic_node ~depth:d w

let violations_named name result =
  List.filter (fun (v : Ex.violation) -> String.equal v.property name) result.Ex.violations

(* ---------- Explorer ---------- *)

let test_no_violation_in_safe_world () =
  let r = explore (world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant) ]) in
  checki "no violations" 0 (List.length r.Ex.violations);
  checkb "explored >1 world" true (r.Ex.worlds_explored > 1);
  checkb "not truncated" false r.Ex.truncated

let test_finds_double_grant () =
  let r =
    explore (world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ])
  in
  checkb "mutex violated in some future" true (List.length (violations_named "mutex" r) > 0);
  let v = List.hd (violations_named "mutex" r) in
  checki "needs two deliveries" 2 v.Ex.at_depth;
  checki "path length" 2 (List.length v.Ex.path)

let test_depth_bound_respected () =
  let w = world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] in
  let shallow = explore ~depth:1 w in
  checki "unreachable at depth 1" 0 (List.length (violations_named "mutex" shallow))

let test_choice_branching () =
  (* Violation only if the flip chooses to take the lock — explorer
     must branch into the non-default alternative. *)
  let r = explore (world [ (0, true); (1, false) ] [ (0, 1, Lock.Flip) ]) in
  checkb "found via choice branch" true (List.length (violations_named "mutex" r) > 0)

let test_timer_branching () =
  let r = explore (world ~timers:[ (1, "grab") ] [ (0, true); (1, false) ] []) in
  checkb "timer fire explored" true (List.length (violations_named "mutex" r) > 0);
  let v = List.hd (violations_named "mutex" r) in
  checkb "path is a timer step" true
    (match v.Ex.path with [ Ex.Timer_step _ ] -> true | _ -> false)

let test_generic_node () =
  let w = world [ (0, true); (1, false) ] [] in
  let without = explore w in
  checki "closed world safe" 0 (List.length (violations_named "mutex" without));
  let with_generic = explore ~generic_node:true w in
  checkb "generic node finds it" true (List.length (violations_named "mutex" with_generic) > 0)

let test_drop_branches () =
  (* With drops enabled the violating delivery can be avoided — both
     futures are explored. *)
  let w = world [ (0, true); (1, false) ] [ (0, 1, Lock.Grant) ] in
  let r = explore ~include_drops:true w in
  checkb "violation still found" true (List.length (violations_named "mutex" r) > 0);
  checkb "drop step explored" true
    (List.exists
       (fun (s : Ex.step) -> match s with Ex.Drop_step _ -> true | _ -> false)
       (List.concat_map (fun (v : Ex.violation) -> v.Ex.path) r.Ex.violations)
     || r.Ex.worlds_explored > 2)

let test_dedup () =
  (* Two identical grants to the same node: delivering either first
     reaches the same world. *)
  let r = explore (world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (0, 1, Lock.Grant) ]) in
  checkb "dedup hit" true (r.Ex.worlds_deduped > 0)

let test_liveness_report () =
  let holds = explore (world [ (0, false) ] [ (1, 0, Lock.Grant) ]) in
  checkb "liveness satisfiable" true (holds.Ex.liveness_unmet = []);
  let never = explore (world [ (0, false) ] []) in
  checkb "liveness unmet reported" true (List.mem "someone-holds" never.Ex.liveness_unmet)

let test_budget_truncation () =
  let pending = List.init 6 (fun i -> (i mod 2, 1 - (i mod 2), Lock.Flip)) in
  let r = Ex.explore ~max_worlds:10 ~depth:6 (world [ (0, false); (1, false) ] pending) in
  checkb "truncated" true r.Ex.truncated;
  checki "budget respected" 10 r.Ex.worlds_explored

let test_first_steps () =
  let r =
    explore (world [ (0, true); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Release) ])
  in
  let steps = Ex.first_steps_to_violation r in
  checkb "offending first step is the grant" true
    (List.exists
       (fun (s : Ex.step) ->
         match s with
         | Ex.Deliver_step { kind; _ } -> String.equal kind "grant"
         | _ -> false)
       steps)

let test_iterative_deepening () =
  (* The double grant needs depth 2; iterative deepening should stop
     exactly there with a minimal 2-step path. *)
  let w = world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] in
  let depth, r = Ex.iterative ~max_depth:5 w in
  checki "stops at the minimal depth" 2 depth;
  checkb "violations found" true (violations_named "mutex" r <> []);
  List.iter
    (fun (v : Ex.violation) -> checki "paths are minimal" 2 (List.length v.Ex.path))
    (violations_named "mutex" r);
  (* A safe world runs to max_depth and reports clean. *)
  let safe = world [ (0, false); (1, false) ] [ (0, 1, Lock.Release) ] in
  let depth, r = Ex.iterative ~max_depth:3 safe in
  checki "exhausts the bound" 3 depth;
  checki "clean" 0 (List.length r.Ex.violations)

let test_world_of_view () =
  let view : (Lock.state, Lock.msg) Proto.View.t =
    Proto.View.v ~time:Dsim.Vtime.zero
      ~nodes:[ (nid 0, { Lock.self = nid 0; holding = true }) ]
      ~inflight:[ (nid 1, nid 0, Lock.Grant) ]
  in
  let w = Ex.world_of_view ~timers:[ (nid 0, "grab") ] view in
  checki "states" 1 (Proto.Node_id.Map.cardinal w.Ex.states);
  checki "pending" 1 (List.length w.Ex.pending);
  checki "timers" 1 (List.length w.Ex.timers)

(* ---------- Steering ---------- *)

let test_steering_no_violation () =
  let v = St.decide ~depth:3 (world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant) ]) in
  checkb "nothing to steer" true (v = St.No_violation)

let test_steering_vetoes_offender () =
  let w = world [ (0, true); (1, false) ] [ (0, 1, Lock.Grant) ] in
  match St.decide ~depth:3 w with
  | St.Steer [ veto ] ->
      Alcotest.check Alcotest.string "kind" "grant" veto.St.kind;
      checki "src" 0 (Proto.Node_id.to_int veto.St.src);
      checki "dst" 1 (Proto.Node_id.to_int veto.St.dst)
  | St.Steer _ -> Alcotest.fail "expected exactly one veto"
  | St.No_violation -> Alcotest.fail "violation missed"
  | St.Cannot_steer _ -> Alcotest.fail "steering should be safe"

let test_steering_double_grant_vetoes_one () =
  let w = world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] in
  match St.decide ~depth:3 w with
  | St.Steer vetoes -> checkb "at least one veto" true (List.length vetoes >= 1)
  | St.No_violation | St.Cannot_steer _ -> Alcotest.fail "expected Steer"

let test_steering_reports_unsteerable () =
  (* The violation comes from a timer, not a filterable delivery. *)
  let w = world ~timers:[ (1, "grab") ] [ (0, true); (1, false) ] [] in
  match St.decide ~depth:2 w with
  | St.Cannot_steer props -> checkb "mutex doomed" true (List.mem "mutex" props)
  | St.No_violation -> Alcotest.fail "violation missed"
  | St.Steer _ -> Alcotest.fail "no delivery can be vetoed here"

(* The steering shape: one cache reused round after round over
   successive snapshots. Every warm round agrees with a cold explore of
   the same world on all but [outcomes_cached], and a world seen in an
   earlier round hits the cache more than its cold explore does. *)
let test_warm_cache_across_rounds () =
  let a = world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] in
  let b =
    world ~timers:[ (1, "grab"); (0, "grab") ] [ (0, true); (1, false) ]
      [ (1, 0, Lock.Release); (0, 1, Lock.Flip) ]
  in
  let cache = Ex.create_cache () in
  List.iteri
    (fun round w ->
      let cold = Ex.explore ~include_drops:true ~depth:4 w in
      let warm = Ex.explore ~include_drops:true ~cache ~depth:4 w in
      let name = Printf.sprintf "round %d: " round in
      checkb (name ^ "same violations") true (cold.Ex.violations = warm.Ex.violations);
      checki (name ^ "same worlds") cold.Ex.worlds_explored warm.Ex.worlds_explored;
      checki (name ^ "same dedups") cold.Ex.worlds_deduped warm.Ex.worlds_deduped;
      checki (name ^ "same collisions") cold.Ex.fingerprint_collisions
        warm.Ex.fingerprint_collisions;
      checkb (name ^ "same truncation") cold.Ex.truncated warm.Ex.truncated;
      checkb (name ^ "same unmet liveness") true (cold.Ex.liveness_unmet = warm.Ex.liveness_unmet);
      if round >= 2 then
        checkb (name ^ "revisit hits the warm cache") true
          (warm.Ex.outcomes_cached > cold.Ex.outcomes_cached))
    [ a; b; a; b ]

(* ---------- Root memo and table resets ---------- *)

(* One node that adds whatever it is sent: a root with [m] distinct
   pending additions makes [m] distinct handler lookups at depth 1, and
   changing the explore seed makes [m] fresh ones. *)
module Counter = struct
  type state = int
  type msg = Add of int

  let name = "counter"
  let equal_state = Int.equal
  let pp_state ppf n = Format.fprintf ppf "%d" n
  let pp_msg ppf (Add k) = Format.fprintf ppf "add%d" k
  let msg_kind _ = "add"
  let msg_bytes _ = 8
  let msg_codec = None
  let validate = None
  let durable = None
  let degraded = None
  let priority = None
  let fingerprint = None
  let init _ = (0, [])

  let receive =
    [
      Proto.Handler.v ~name:"add"
        ~guard:(fun _ ~src:_ _ -> true)
        (fun _ n ~src:_ (Add k) -> (n + k, []));
    ]

  let on_timer _ n _ = (n, [])
  let properties = []
  let objectives = []
  let generic_msgs _ = []
end

module Cx = Mc.Explorer.Make (Counter)

let counter_world m : Cx.world =
  {
    states = Proto.Node_id.Map.singleton (nid 0) 0;
    pending = List.init m (fun k -> (nid 0, nid 0, Counter.Add (k + 1)));
    timers = [];
    clocks = [];
  }

let check_same_result name (a : Cx.result) (b : Cx.result) =
  checki (name ^ ": worlds") a.Cx.worlds_explored b.Cx.worlds_explored;
  checki (name ^ ": dedups") a.Cx.worlds_deduped b.Cx.worlds_deduped;
  checki (name ^ ": outcomes cached") a.Cx.outcomes_cached b.Cx.outcomes_cached

(* Without a cache every explore is a real one: exploring the same
   world value twice reports the cold count twice, never a replay. *)
let test_no_cache_no_memo () =
  let w = counter_world 9 in
  let first = Cx.explore ~depth:1 w in
  let second = Cx.explore ~depth:1 w in
  checki "cold explore caches nothing" 0 first.Cx.outcomes_cached;
  check_same_result "second uncached explore" first second;
  let cache = Cx.create_cache () in
  ignore (Cx.explore ~cache ~depth:1 w);
  checki "a shared cache replays every lookup" 9
    (Cx.explore ~cache ~depth:1 w).Cx.outcomes_cached

(* The handler tables hold at most 200_000 entries each. With 99
   distinct lookups per explore, the reset lands inside one explore,
   which therefore must not be remembered: re-exploring it finds only
   the lookups made after the reset. And no root remembered before the
   reset (the probe, under the default seed 7 the fill never uses) may be
   replayed after it: its lookups are gone, so a real explore of it is
   a cold one. *)
let test_memo_forgets_across_reset () =
  let m = 99 in
  let w = counter_world m and probe = counter_world 5 in
  let cache = Cx.create_cache () in
  checki "probe: cold" 0 (Cx.explore ~cache ~depth:1 probe).Cx.outcomes_cached;
  checki "probe: remembered" 5 (Cx.explore ~cache ~depth:1 probe).Cx.outcomes_cached;
  let rec fill seed =
    if seed > 10_000 then Alcotest.fail "no reset inside an explore observed"
    else begin
      let first = Cx.explore ~seed ~cache ~depth:1 w in
      checki "fill explore: cold" 0 first.Cx.outcomes_cached;
      let again = Cx.explore ~seed ~cache ~depth:1 w in
      if again.Cx.outcomes_cached = m then fill (seed + 1) else (seed, again)
    end
  in
  let seed, again = fill 1_000 in
  checkb "re-explore after a mid-explore reset finds some lookups" true
    (again.Cx.outcomes_cached > 0 && again.Cx.outcomes_cached < m);
  checki "same worlds as a cold explore" (Cx.explore ~seed ~depth:1 w).Cx.worlds_explored
    again.Cx.worlds_explored;
  checki "third explore: every lookup present" m
    (Cx.explore ~seed ~cache ~depth:1 w).Cx.outcomes_cached;
  check_same_result "probe after the reset" (Cx.explore ~depth:1 probe)
    (Cx.explore ~cache ~depth:1 probe)

let () =
  Alcotest.run "mc"
    [
      ( "explorer",
        [
          Alcotest.test_case "safe world" `Quick test_no_violation_in_safe_world;
          Alcotest.test_case "double grant" `Quick test_finds_double_grant;
          Alcotest.test_case "depth bound" `Quick test_depth_bound_respected;
          Alcotest.test_case "choice branching" `Quick test_choice_branching;
          Alcotest.test_case "timer branching" `Quick test_timer_branching;
          Alcotest.test_case "generic node" `Quick test_generic_node;
          Alcotest.test_case "drop branches" `Quick test_drop_branches;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "liveness" `Quick test_liveness_report;
          Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
          Alcotest.test_case "first steps" `Quick test_first_steps;
          Alcotest.test_case "iterative deepening" `Quick test_iterative_deepening;
          Alcotest.test_case "world_of_view" `Quick test_world_of_view;
          Alcotest.test_case "warm cache across rounds" `Quick test_warm_cache_across_rounds;
          Alcotest.test_case "no cache, no memo" `Quick test_no_cache_no_memo;
          Alcotest.test_case "memo forgets across a reset" `Slow test_memo_forgets_across_reset;
        ] );
      ( "steering",
        [
          Alcotest.test_case "no violation" `Quick test_steering_no_violation;
          Alcotest.test_case "vetoes offender" `Quick test_steering_vetoes_offender;
          Alcotest.test_case "double grant" `Quick test_steering_double_grant_vetoes_one;
          Alcotest.test_case "unsteerable" `Quick test_steering_reports_unsteerable;
        ] );
    ]
