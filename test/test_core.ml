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
  checks "label" "pick" c.Core.Choice.label;
  checks "nth" "b" (Core.Choice.nth c 1);
  Alcotest.check_raises "nth oob" (Invalid_argument "Choice.nth: index out of range") (fun () ->
      ignore (Core.Choice.nth c 7))

let test_choice_invalid () =
  Alcotest.check_raises "empty alts" (Invalid_argument "Choice.make: no alternatives") (fun () ->
      ignore (Core.Choice.make ~label:"x" []));
  Alcotest.check_raises "empty label" (Invalid_argument "Choice.make: empty label") (fun () ->
      ignore (Core.Choice.make ~label:"" [ Core.Choice.alt 1 ]));
  Alcotest.check_raises "repeated name"
    (Invalid_argument "Choice.schema: repeated name \"rtt\"") (fun () ->
      ignore (Core.Choice.schema [ "rtt"; "age"; "rtt" ]));
  let schema = Core.Choice.schema [ "rtt"; "age" ] in
  let wants = Invalid_argument "Choice.make: x wants 2 features per alternative" in
  Alcotest.check_raises "too few features" wants (fun () ->
      ignore
        (Core.Choice.make ~label:"x" ~schema
           [ Core.Choice.alt ~features:[| 1.; 2. |] 1; Core.Choice.alt ~features:[| 1. |] 2 ]));
  Alcotest.check_raises "too many features" wants (fun () ->
      ignore (Core.Choice.make ~label:"x" ~schema [ Core.Choice.alt ~features:[| 1.; 2.; 3. |] 1 ]));
  Alcotest.check_raises "features without a schema"
    (Invalid_argument "Choice.make: x wants 0 features per alternative") (fun () ->
      ignore (Core.Choice.make ~label:"x" [ Core.Choice.alt ~features:[| 1. |] 1 ]))

let test_choice_features () =
  let schema = Core.Choice.schema [ "rtt"; "age" ] in
  let c =
    Core.Choice.make ~label:"x" ~schema
      [ Core.Choice.alt ~features:[| 5.; 2. |] 10; Core.Choice.alt ~features:[| 7.; 1. |] 20 ]
  in
  let site = Core.Choice.site ~node:3 ~occurrence:0 c in
  checki "site arity" 2 site.Core.Choice.site_arity;
  checki "site node" 3 site.Core.Choice.site_node;
  checkb "schema shared" true (site.site_schema == schema);
  Alcotest.(check (array (float 0.))) "row-major" [| 5.; 2.; 7.; 1. |] site.site_features;
  let col name = Core.Choice.column name site in
  checki "rtt column" 0 (col "rtt");
  checki "age column" 1 (col "age");
  checki "missing column" (-1) (col "load");
  checkf "value" 7. (Core.Choice.value site (col "rtt") ~alt:1 ~default:0.);
  checkf "missing value" 3. (Core.Choice.value site (col "load") ~alt:1 ~default:3.)

let test_choice_of_values_feature_fn () =
  let c =
    Core.Choice.of_values ~label:"n" ~schema:(Core.Choice.schema [ "v" ])
      ~feature:(fun v -> [| float_of_int v |])
      [ 4; 9 ]
  in
  let site = Core.Choice.site ~node:0 ~occurrence:0 c in
  checkf "derived feature" 9. site.Core.Choice.site_features.(1)

(* Feature names for random schemas: the ones the resolvers under test
   read, and others. *)
let names = [ "rtt_ms"; "is_primary"; "known_seq"; "floor"; "v"; ""; "age_s"; "replica_id" ]

(* Feature values, edge cases included: NaN, both zeros, both
   infinities, and values near the session resolver's 0.5 cut. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-50.) 50.);
        (3, map float_of_int (-3 -- 12));
        (2, oneofl [ nan; 0.; -0.; infinity; neg_infinity; 0.5; 1.; 1e300; -1e-300 ]);
      ])

(* A random schema site: arity 1-8, width 0-6, one of two labels. *)
let gen_site =
  QCheck.Gen.(
    int_range 1 8 >>= fun arity ->
    int_range 0 6 >>= fun width ->
    shuffle_l names >>= fun shuffled ->
    oneofl [ "a"; "b" ] >>= fun label ->
    array_repeat (arity * width) gen_value >|= fun values ->
    let names = List.filteri (fun i _ -> i < width) shuffled in
    let schema = Core.Choice.schema names in
    let alts =
      List.init arity (fun a -> Core.Choice.alt ~features:(Array.sub values (a * width) width) a)
    in
    Core.Choice.site ~node:(arity + width) ~occurrence:0 (Core.Choice.make ~label ~schema alts))

let print_site (s : Core.Choice.site) =
  let o = Test_support.Choice_oracle.of_site s in
  Printf.sprintf "%s: %s" s.site_label
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun fs -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S=%h" k v) fs))
             o.site_features)))

(* [column] and [value] against the string-keyed [feature], for every
   name at every alternative. *)
let prop_column_matches_feature =
  QCheck.Test.make ~name:"column = string-keyed feature" ~count:500
    (QCheck.make ~print:print_site gen_site) (fun site ->
      let o = Test_support.Choice_oracle.of_site site in
      List.for_all
        (fun name ->
          let c = Core.Choice.column name site in
          List.for_all
            (fun alt ->
              match Test_support.Choice_oracle.feature o ~alt name with
              | None -> c = -1
              | Some v ->
                  c >= 0
                  && Int64.equal (Int64.bits_of_float v)
                       (Int64.bits_of_float (Core.Choice.value site c ~alt ~default:0.)))
            (List.init site.site_arity Fun.id))
        ("missing" :: names))

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

let cost = Core.Choice.schema [ "cost" ]

let test_resolver_greedy () =
  let c =
    Core.Choice.make ~label:"g" ~schema:cost
      [
        Core.Choice.alt ~features:[| 5. |] "five";
        Core.Choice.alt ~features:[| 2. |] "two";
        Core.Choice.alt ~features:[| 9. |] "nine";
      ]
  in
  checks "min" "two" (apply (Core.Resolver.greedy ~feature:"cost" ()) c);
  checks "max" "nine" (apply (Core.Resolver.greedy ~feature:"cost" ~maximize:true ()) c)

(* A schema without the feature ties every alternative. *)
let test_resolver_greedy_missing_feature () =
  let c =
    Core.Choice.make ~label:"g" ~schema:(Core.Choice.schema [ "load" ])
      [ Core.Choice.alt ~features:[| 1. |] 0; Core.Choice.alt ~features:[| 100. |] 1 ]
  in
  let r = Core.Resolver.greedy ~feature:"cost" () in
  let g = rng () in
  let picks = List.init 100 (fun _ -> fst (Core.Resolver.apply r g c ~node:0 ~occurrence:0)) in
  checkb "both sides chosen" true (List.mem 0 picks && List.mem 1 picks)

let test_resolver_greedy_random_ties () =
  let c =
    Core.Choice.make ~label:"g" ~schema:cost
      [ Core.Choice.alt ~features:[| 1. |] 0; Core.Choice.alt ~features:[| 1. |] 1 ]
  in
  let r = Core.Resolver.greedy ~feature:"cost" () in
  let g = rng () in
  let picks = List.init 100 (fun _ -> fst (Core.Resolver.apply r g c ~node:0 ~occurrence:0)) in
  checkb "both sides chosen" true (List.mem 0 picks && List.mem 1 picks)

let test_resolver_weighted () =
  let c =
    Core.Choice.make ~label:"w" ~schema:(Core.Choice.schema [ "w" ])
      [ Core.Choice.alt ~features:[| 0. |] 0; Core.Choice.alt ~features:[| 10. |] 1 ]
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
  let schema = Core.Choice.schema [ "d" ] in
  let site d =
    Core.Choice.site ~node:0 ~occurrence:0
      (Core.Choice.make ~label:"c" ~schema
         [ Core.Choice.alt ~features:[| d |] 0; Core.Choice.alt ~features:[| d |] 1 ])
  in
  let near = site 0.1 and far = site 99. in
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

(* ---------- Schema resolvers against their string-keyed oracles ---------- *)

module Oracle = Test_support.Choice_oracle

(* One resolver per name, kept across cases, so that each column meets
   many schemas and forgets old ones. *)
let greedy_min = List.map (fun n -> (n, Core.Resolver.greedy ~feature:n ())) ("missing" :: names)

let greedy_max =
  List.map (fun n -> (n, Core.Resolver.greedy ~feature:n ~maximize:true ())) ("missing" :: names)

let weighted = List.map (fun n -> (n, Core.Resolver.weighted ~feature:n)) ("missing" :: names)

(* The index a resolver answers from a fresh seeded RNG, with the next
   draw of that RNG (so both consumed the same randomness), or the
   exception it raised. *)
let outcome seed f =
  let rng = Dsim.Rng.create seed in
  match f rng with
  | i -> Ok (i, Dsim.Rng.bits64 rng)
  | exception e -> Error (Printexc.to_string e)

let pp_outcome = function
  | Ok (i, next) -> Printf.sprintf "%d (next draw %Ld)" i next
  | Error e -> e

let prop_resolvers_match_oracles =
  let gen =
    QCheck.Gen.(quad gen_site (oneofl ("missing" :: names)) (pair bool nat) (int_range 1 6))
  in
  let print (site, name, (maximize, seed), buckets) =
    Printf.sprintf "%s; feature %S maximize=%b seed=%d buckets=%d" (print_site site) name maximize
      seed buckets
  in
  QCheck.Test.make ~name:"schema resolvers = string-keyed oracles" ~count:1000
    (QCheck.make ~print gen) (fun (site, name, (maximize, seed), buckets) ->
      let o = Oracle.of_site site in
      let same what (r : Core.Resolver.t) oracle =
        let a = outcome seed (fun rng -> r.choose rng site) and b = outcome seed (fun rng -> oracle rng o) in
        if a <> b then QCheck.Test.fail_reportf "%s: %s, oracle %s" what (pp_outcome a) (pp_outcome b)
      in
      same "greedy"
        (List.assoc name (if maximize then greedy_max else greedy_min))
        (Oracle.greedy ~feature:name ~maximize ());
      same "weighted" (List.assoc name weighted) (Oracle.weighted ~feature:name);
      same "session" Apps.Kvstore.session_resolver Oracle.session_resolver;
      let key = Core.Bandit.context_key (Core.Bandit.create ~feature_buckets:buckets ()) site
      and oracle = Oracle.context_key ~feature_buckets:buckets o in
      if not (String.equal key oracle) then
        QCheck.Test.fail_reportf "bandit key %S, oracle %S" key oracle;
      true)

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
          QCheck_alcotest.to_alcotest prop_column_matches_feature;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "first" `Quick test_resolver_first;
          Alcotest.test_case "random uniform-ish" `Quick test_resolver_random_uniformish;
          Alcotest.test_case "round robin" `Quick test_resolver_round_robin;
          Alcotest.test_case "scripted" `Quick test_resolver_scripted;
          Alcotest.test_case "greedy" `Quick test_resolver_greedy;
          Alcotest.test_case "greedy missing feature" `Quick test_resolver_greedy_missing_feature;
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
      ("schema", qcheck [ prop_resolvers_match_oracles ]);
      ( "objective+property",
        [
          Alcotest.test_case "scoring" `Quick test_objective_scoring;
          Alcotest.test_case "constrained" `Quick test_objective_constrained;
          Alcotest.test_case "invalid weight" `Quick test_objective_invalid_weight;
          Alcotest.test_case "property check" `Quick test_property_check;
          Alcotest.test_case "property start" `Quick test_property_start;
        ] );
    ]
