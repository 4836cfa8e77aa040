(* Unit and property tests for the choice/resolver/bandit core. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

let rng () = Dsim.Rng.create 42

let simple_choice ?(label = "pick") values = Core.Choice.of_values ~label values

(* ---------- Choice ---------- *)

let test_choice_build () =
  let c = simple_choice [ "a"; "b"; "c" ] in
  checki "arity" 3 (Core.Choice.arity c);
  checks "label" "pick" (Core.Choice.label c);
  checks "nth" "b" (Core.Choice.nth c 1);
  Alcotest.check_raises "nth oob" (Invalid_argument "Choice.nth: index out of range") (fun () ->
      ignore (Core.Choice.nth c 7))

let test_choice_invalid () =
  Alcotest.check_raises "empty alts" (Invalid_argument "Choice.make: no alternatives") (fun () ->
      ignore (Core.Choice.make ~label:"x" []));
  Alcotest.check_raises "empty label" (Invalid_argument "Choice.make: empty label") (fun () ->
      ignore (Core.Choice.make ~label:"" [ Core.Choice.alt 1 ]))

let test_choice_features () =
  let c =
    Core.Choice.make ~label:"x"
      [
        Core.Choice.alt ~features:[ ("rtt", 5.) ] 10;
        Core.Choice.alt ~features:[ ("rtt", 7.); ("age", 1.) ] 20;
      ]
  in
  let site = Core.Choice.site ~node:3 ~occurrence:0 c in
  checki "site arity" 2 site.Core.Choice.site_arity;
  checki "site node" 3 site.Core.Choice.site_node;
  checkb "feature" true (Core.Choice.feature site ~alt:1 "rtt" = Some 7.);
  checkb "missing feature" true (Core.Choice.feature site ~alt:0 "age" = None);
  checkb "oob alt" true (Core.Choice.feature site ~alt:5 "rtt" = None)

let test_choice_of_values_feature_fn () =
  let c = Core.Choice.of_values ~label:"n" ~feature:(fun v -> [ ("v", float_of_int v) ]) [ 4; 9 ] in
  let site = Core.Choice.site ~node:0 ~occurrence:0 c in
  checkb "derived feature" true (Core.Choice.feature site ~alt:1 "v" = Some 9.)

(* [feature] against [List.assoc_opt] on feature lists with repeated
   and missing names, at alternatives in and out of range. Every bound
   value is distinct, so returning any binding but the first shows. *)
let prop_feature_matches_assoc =
  let names = [ "rtt_ms"; "is_primary"; "known_seq"; "floor"; ""; "rtt" ] in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 4) (list_size (0 -- 6) (oneofl names)))
        (list_size (1 -- 20) (pair (-2 -- 5) (oneofl ("missing" :: names)))))
  in
  let print (alts, queries) =
    Printf.sprintf "alts=[%s] queries=[%s]"
      (String.concat " | " (List.map (String.concat ",") alts))
      (String.concat "; " (List.map (fun (a, n) -> Printf.sprintf "%d:%S" a n) queries))
  in
  QCheck.Test.make ~name:"feature = List.assoc_opt" ~count:500 (QCheck.make ~print gen)
    (fun (alts, queries) ->
      let next = ref 0. in
      let features =
        List.map
          (List.map (fun name ->
               next := !next +. 1.;
               (name, !next)))
          alts
      in
      let c =
        Core.Choice.make ~label:"f" (List.mapi (fun i fs -> Core.Choice.alt ~features:fs i) features)
      in
      let site = Core.Choice.site ~node:0 ~occurrence:0 c in
      let table = Array.of_list features in
      List.for_all
        (fun (alt, name) ->
          let expected =
            if alt < 0 || alt >= Array.length table then None else List.assoc_opt name table.(alt)
          in
          Option.equal Float.equal expected (Core.Choice.feature site ~alt name))
        queries)

(* ---------- Resolver ---------- *)

let apply r c = fst (Core.Resolver.apply r (rng ()) c ~node:0 ~occurrence:0)

let test_resolver_first () = checks "first" "a" (apply Core.Resolver.first (simple_choice [ "a"; "b" ]))

let test_resolver_random_uniformish () =
  let r = Core.Resolver.random in
  let g = rng () in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let _, i = Core.Resolver.apply r g (simple_choice [ 0; 1; 2 ]) ~node:0 ~occurrence:0 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter (fun c -> checkb "roughly uniform" true (c > 800 && c < 1200)) counts

let test_resolver_round_robin () =
  let r = Core.Resolver.round_robin () in
  let g = rng () in
  let picks =
    List.init 5 (fun _ ->
        snd (Core.Resolver.apply r g (simple_choice [ "x"; "y"; "z" ]) ~node:0 ~occurrence:0))
  in
  Alcotest.check (Alcotest.list Alcotest.int) "cycles" [ 0; 1; 2; 0; 1 ] picks

let test_resolver_scripted () =
  let r = Core.Resolver.scripted [ ("pick", 1); ("other", 9) ] in
  checks "scripted hit" "b" (apply r (simple_choice [ "a"; "b" ]));
  checks "clamped" "b" (apply r (simple_choice ~label:"other" [ "a"; "b" ]));
  checks "default 0" "a" (apply r (simple_choice ~label:"unlisted" [ "a"; "b" ]))

let test_resolver_greedy () =
  let c =
    Core.Choice.make ~label:"g"
      [
        Core.Choice.alt ~features:[ ("cost", 5.) ] "five";
        Core.Choice.alt ~features:[ ("cost", 2.) ] "two";
        Core.Choice.alt ~features:[ ("cost", 9.) ] "nine";
      ]
  in
  checks "min" "two" (apply (Core.Resolver.greedy ~feature:"cost" ()) c);
  checks "max" "nine" (apply (Core.Resolver.greedy ~feature:"cost" ~maximize:true ()) c)

let test_resolver_greedy_missing_feature_ranks_last () =
  let c =
    Core.Choice.make ~label:"g"
      [ Core.Choice.alt "bare"; Core.Choice.alt ~features:[ ("cost", 100.) ] "costed" ]
  in
  checks "featureless loses" "costed" (apply (Core.Resolver.greedy ~feature:"cost" ()) c)

let test_resolver_greedy_random_ties () =
  let c =
    Core.Choice.make ~label:"g"
      [
        Core.Choice.alt ~features:[ ("cost", 1.) ] 0;
        Core.Choice.alt ~features:[ ("cost", 1.) ] 1;
      ]
  in
  let r = Core.Resolver.greedy ~feature:"cost" () in
  let g = rng () in
  let picks = List.init 100 (fun _ -> fst (Core.Resolver.apply r g c ~node:0 ~occurrence:0)) in
  checkb "both sides chosen" true (List.mem 0 picks && List.mem 1 picks)

let test_resolver_weighted () =
  let c =
    Core.Choice.make ~label:"w"
      [
        Core.Choice.alt ~features:[ ("w", 0.) ] 0;
        Core.Choice.alt ~features:[ ("w", 10.) ] 1;
      ]
  in
  let r = Core.Resolver.weighted ~feature:"w" in
  let g = rng () in
  for _ = 1 to 100 do
    let v, _ = Core.Resolver.apply r g c ~node:0 ~occurrence:0 in
    checki "zero weight never picked" 1 v
  done

let test_resolver_by_label () =
  let r =
    Core.Resolver.by_label
      [ ("pick", Core.Resolver.scripted [ ("pick", 1) ]) ]
      ~default:Core.Resolver.first
  in
  checks "routed" "b" (apply r (simple_choice [ "a"; "b" ]));
  checks "default" "x" (apply r (simple_choice ~label:"other" [ "x"; "y" ]));
  (* Feedback routes to the same resolver. *)
  let bandit = Core.Bandit.create () in
  let routed = Core.Resolver.by_label [ ("pick", Core.Bandit.to_resolver bandit) ] ~default:Core.Resolver.first in
  let site = Core.Choice.site ~node:0 ~occurrence:0 (simple_choice [ "a"; "b" ]) in
  routed.Core.Resolver.feedback ~site ~chosen:1 ~reward:1.;
  checki "feedback routed" 1 (Core.Bandit.pulls bandit site ~arm:1)

let test_resolver_epsilon_mix () =
  let explore = Core.Resolver.scripted [ ("pick", 1) ] in
  let exploit = Core.Resolver.first in
  let r = Core.Resolver.epsilon_mix ~epsilon:0.5 ~explore ~exploit in
  let g = rng () in
  let picks =
    List.init 200 (fun _ ->
        snd (Core.Resolver.apply r g (simple_choice [ "a"; "b" ]) ~node:0 ~occurrence:0))
  in
  checkb "both sides used" true (List.mem 0 picks && List.mem 1 picks);
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Resolver.epsilon_mix: epsilon out of [0,1]") (fun () ->
      ignore (Core.Resolver.epsilon_mix ~epsilon:2. ~explore ~exploit))

let test_resolver_out_of_range_rejected () =
  let bad = Core.Resolver.make ~name:"bad" (fun _ _ -> 99) in
  Alcotest.check_raises "index checked"
    (Invalid_argument "Resolver.apply: bad answered 99 for arity 2 at pick") (fun () ->
      ignore (apply bad (simple_choice [ "a"; "b" ])))

(* ---------- Bandit ---------- *)

let site_of ?(label = "b") ?(node = 0) values =
  Core.Choice.site ~node ~occurrence:0 (simple_choice ~label values)

let test_bandit_tries_all_arms_first () =
  let b = Core.Bandit.create () in
  let g = rng () in
  let s = site_of [ "x"; "y"; "z" ] in
  let first3 =
    List.init 3 (fun _ ->
        let i = Core.Bandit.select b g s in
        Core.Bandit.update b s ~arm:i ~reward:0.;
        i)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "each arm once" [ 0; 1; 2 ] first3

let test_bandit_converges_to_best () =
  let b = Core.Bandit.create ~algo:(Core.Bandit.Ucb1 0.5) () in
  let g = rng () in
  let s = site_of [ "bad"; "good" ] in
  for _ = 1 to 200 do
    let i = Core.Bandit.select b g s in
    Core.Bandit.update b s ~arm:i ~reward:(if i = 1 then 1. else 0.)
  done;
  checkb "good arm pulled most" true
    (Core.Bandit.pulls b s ~arm:1 > 3 * Core.Bandit.pulls b s ~arm:0);
  checkf "mean reward learned" 1. (Core.Bandit.mean_reward b s ~arm:1)

let test_bandit_epsilon_greedy_explores () =
  let b = Core.Bandit.create ~algo:(Core.Bandit.Epsilon_greedy 0.5) () in
  let g = rng () in
  let s = site_of [ "a"; "b" ] in
  for _ = 1 to 100 do
    let i = Core.Bandit.select b g s in
    Core.Bandit.update b s ~arm:i ~reward:(if i = 0 then 1. else 0.)
  done;
  checkb "loser still explored" true (Core.Bandit.pulls b s ~arm:1 > 5)

let test_bandit_contexts_separate () =
  let b = Core.Bandit.create () in
  let near = Core.Choice.site ~node:0 ~occurrence:0
      (Core.Choice.make ~label:"c" [ Core.Choice.alt ~features:[ ("d", 0.1) ] 0; Core.Choice.alt ~features:[ ("d", 0.1) ] 1 ])
  in
  let far = Core.Choice.site ~node:0 ~occurrence:0
      (Core.Choice.make ~label:"c" [ Core.Choice.alt ~features:[ ("d", 99.) ] 0; Core.Choice.alt ~features:[ ("d", 99.) ] 1 ])
  in
  Core.Bandit.update b near ~arm:0 ~reward:1.;
  Core.Bandit.update b far ~arm:0 ~reward:0.;
  checki "two contexts" 2 (Core.Bandit.contexts b);
  checkf "near context isolated" 1. (Core.Bandit.mean_reward b near ~arm:0)

let test_bandit_resolver_feedback () =
  let b = Core.Bandit.create () in
  let r = Core.Bandit.to_resolver b in
  let s = site_of [ "a"; "b" ] in
  r.Core.Resolver.feedback ~site:s ~chosen:1 ~reward:2.;
  checki "feedback recorded" 1 (Core.Bandit.pulls b s ~arm:1);
  checkf "reward stored" 2. (Core.Bandit.mean_reward b s ~arm:1)

let test_bandit_invalid () =
  Alcotest.check_raises "bad epsilon" (Invalid_argument "Bandit.create: epsilon out of [0,1]")
    (fun () -> ignore (Core.Bandit.create ~algo:(Core.Bandit.Epsilon_greedy 2.) ()))

let test_bandit_exploit () =
  let b = Core.Bandit.create () in
  let s = site_of [ "a"; "b"; "c" ] in
  checki "unseen context answers 0" 0 (Core.Bandit.exploit b s);
  Core.Bandit.update b s ~arm:2 ~reward:1.;
  Core.Bandit.update b s ~arm:0 ~reward:0.2;
  checki "best mean wins" 2 (Core.Bandit.exploit b s);
  checki "context pulls" 2 (Core.Bandit.context_pulls b s);
  (* The frozen resolver never explores: repeated calls are stable. *)
  let r = Core.Bandit.exploit_resolver b in
  let g = rng () in
  for _ = 1 to 20 do
    checki "frozen" 2 (r.Core.Resolver.choose g s)
  done

let prop_bandit_select_in_range =
  QCheck.Test.make ~name:"bandit always answers in range" ~count:200
    QCheck.(pair (int_range 1 6) small_int)
    (fun (arity, seed) ->
      let b = Core.Bandit.create () in
      let g = Dsim.Rng.create seed in
      let s = Core.Choice.site ~node:0 ~occurrence:0 (simple_choice (List.init arity Fun.id)) in
      List.for_all
        (fun _ ->
          let i = Core.Bandit.select b g s in
          Core.Bandit.update b s ~arm:i ~reward:0.5;
          i >= 0 && i < arity)
        (List.init 20 Fun.id))

(* ---------- Objective & Property ---------- *)

let test_objective_scoring () =
  let o = Core.Objective.v ~name:"o" ~weight:2. (fun v -> float_of_int v) in
  checkf "weighted" 6. (Core.Objective.score o 3);
  checkf "total" 10. (Core.Objective.total [ o; Core.Objective.v ~name:"p" (fun v -> float_of_int (v + 1)) ] 3)

let test_objective_constrained () =
  let o = Core.Objective.v ~name:"o" (fun v -> float_of_int v) in
  let constrained = Core.Objective.constrained o ~penalty:100. (fun v -> v >= 0) in
  checkf "ok no penalty" 3. (Core.Objective.score constrained 3);
  checkf "violating penalised" (-103.) (Core.Objective.score constrained (-3))

let test_objective_invalid_weight () =
  Alcotest.check_raises "weight" (Invalid_argument "Objective.v: weight must be positive")
    (fun () -> ignore (Core.Objective.v ~name:"x" ~weight:0. (fun _ -> 0.)))

let test_property_check () =
  let pos = Core.Property.safety ~name:"pos" (fun v -> v > 0) in
  let live = Core.Property.liveness ~name:"live" (fun v -> v > 10) in
  checki "no violation" 0 (List.length (Core.Property.check [ pos; live ] 5));
  let violated = Core.Property.check [ pos; live ] (-1) in
  checki "safety violated" 1 (List.length violated);
  checks "name" "pos" (List.hd violated).Core.Property.name;
  checkb "liveness never reported by check" true
    (List.for_all (fun (p : _ Core.Property.t) -> p.kind = Core.Property.Safety) violated)

(* A property without a tracker starts one that answers [holds]; a
   tracked one starts its own. *)
let test_property_start () =
  let pos = Core.Property.safety ~name:"pos" (fun v -> v > 0) in
  let tr = Core.Property.start pos 5 in
  tr.touch 0;
  checkb "untracked holds" true (tr.holds 5);
  checkb "untracked fails" false (tr.holds (-1));
  checkb "its copy too" false ((tr.copy ()).holds (-1));
  let started = ref [] in
  let track v =
    started := v :: !started;
    Core.Property.start pos v
  in
  let tracked = Core.Property.safety ~name:"pos" ~track (fun v -> v > 0) in
  checkb "tracked holds" true ((Core.Property.start tracked 3).holds 3);
  Alcotest.(check (list int)) "its tracker started on the view" [ 3 ] !started

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "choice",
        [
          Alcotest.test_case "build" `Quick test_choice_build;
          Alcotest.test_case "invalid" `Quick test_choice_invalid;
          Alcotest.test_case "features" `Quick test_choice_features;
          Alcotest.test_case "of_values feature fn" `Quick test_choice_of_values_feature_fn;
          QCheck_alcotest.to_alcotest prop_feature_matches_assoc;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "first" `Quick test_resolver_first;
          Alcotest.test_case "random uniform-ish" `Quick test_resolver_random_uniformish;
          Alcotest.test_case "round robin" `Quick test_resolver_round_robin;
          Alcotest.test_case "scripted" `Quick test_resolver_scripted;
          Alcotest.test_case "greedy" `Quick test_resolver_greedy;
          Alcotest.test_case "greedy missing feature" `Quick test_resolver_greedy_missing_feature_ranks_last;
          Alcotest.test_case "greedy random ties" `Quick test_resolver_greedy_random_ties;
          Alcotest.test_case "weighted" `Quick test_resolver_weighted;
          Alcotest.test_case "by label" `Quick test_resolver_by_label;
          Alcotest.test_case "epsilon mix" `Quick test_resolver_epsilon_mix;
          Alcotest.test_case "out of range rejected" `Quick test_resolver_out_of_range_rejected;
        ] );
      ( "bandit",
        Alcotest.test_case "tries all arms" `Quick test_bandit_tries_all_arms_first
        :: Alcotest.test_case "converges" `Quick test_bandit_converges_to_best
        :: Alcotest.test_case "epsilon explores" `Quick test_bandit_epsilon_greedy_explores
        :: Alcotest.test_case "contexts separate" `Quick test_bandit_contexts_separate
        :: Alcotest.test_case "resolver feedback" `Quick test_bandit_resolver_feedback
        :: Alcotest.test_case "invalid" `Quick test_bandit_invalid
        :: Alcotest.test_case "exploit" `Quick test_bandit_exploit
        :: qcheck [ prop_bandit_select_in_range ] );
      ( "objective+property",
        [
          Alcotest.test_case "scoring" `Quick test_objective_scoring;
          Alcotest.test_case "constrained" `Quick test_objective_constrained;
          Alcotest.test_case "invalid weight" `Quick test_objective_invalid_weight;
          Alcotest.test_case "property check" `Quick test_property_check;
          Alcotest.test_case "property start" `Quick test_property_start;
        ] );
    ]
