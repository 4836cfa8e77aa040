(* Byzantine mutation: the decodes-clean contract of Wire.Mutator
   against every application wire codec, seeded chaos storms with
   mutation switched on (invariants must hold, validators must bounce
   something), and the byte-identity of seeded plans when the knob is
   off. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module C = Wire.Codec
module M = Wire.Mutator
module Ch = Engine.Chaos
module F = Engine.Faultplan
module X = Experiments.Chaos_exp

let nid = Proto.Node_id.of_int

(* ---------- honest corpora, one per application codec ---------- *)

module P = Apps.Paxos
module K = Apps.Kvstore
module G = Apps.Gossip
module D = Apps.Dht

let cmd = { P.origin = 1; seq = 3; born = 0.5 }

let paxos_corpus =
  [
    P.Submit { cmd };
    P.Prepare { inst = 2; bal = 7 };
    P.Promise { inst = 2; bal = 7; accepted = None };
    P.Promise { inst = 2; bal = 7; accepted = Some (4, cmd) };
    P.Accept_req { inst = 2; bal = 7; cmd };
    P.Accepted { inst = 2; bal = 7; cmd };
    P.Decided { inst = 2; cmd };
  ]

let kvstore_corpus =
  [
    K.Write { key = 3; origin = nid 1 };
    K.Write_done { seq = 9; born = 1.25 };
    K.Apply { seq = 9; key = 3; value = 9 };
    K.Read_req { rid = 4; key = 3; origin = nid 2; born = 2. };
    K.Read_reply { rid = 4; key = 3; value = 9; applied_seq = 9; born = 2. };
    K.Sync_req { have = 5 };
    K.Read_reject { rid = 4; retryable = true };
  ]

let gossip_corpus =
  [ G.Push { rumors = [ 1; 2; 5 ]; round = 3 }; G.Push_back { rumors = [] } ]

let dht_corpus =
  [
    D.Lookup { key = 10; origin = nid 1; born = 0.25; hops = 2 };
    D.Found { key = 10; owner = nid 4; born = 0.25; hops = 5 };
  ]

(* ---------- the mutator contract ---------- *)

(* Every emitted mutant must decode (through the same codec) to exactly
   the value the mutator claims, and its wire form must fit the size
   budget of the original encoding. Across a corpus and many draws, at
   least one mutant must be produced and at least one must genuinely
   differ from its original — otherwise the fault is a no-op. *)
let mutator_contract name codec corpus () =
  let rng = Dsim.Rng.create 99 in
  let emitted = ref 0 and changed = ref 0 in
  List.iter
    (fun m ->
      let bytes = C.encode codec m in
      for _ = 1 to 100 do
        match M.mutate ~rng ~node_ids:[ 0; 1; 2 ] codec bytes with
        | None -> ()
        | Some (v, wire) ->
            incr emitted;
            if v <> m then incr changed;
            checkb (name ^ ": size budget") true (String.length wire <= M.size_budget bytes);
            (match C.decode codec wire with
            | Ok v' -> checkb (name ^ ": decodes to claimed value") true (v = v')
            | Error e -> Alcotest.fail (name ^ ": mutant failed decode: " ^ e))
      done)
    corpus;
  checkb (name ^ ": mutants were produced") true (!emitted > 0);
  checkb (name ^ ": some mutant differs from its original") true (!changed > 0)

(* Same draws, same mutants: the mutator consumes only the given RNG. *)
let test_mutator_deterministic () =
  let stream seed =
    let rng = Dsim.Rng.create seed in
    List.concat_map
      (fun m ->
        let bytes = C.encode P.msg_codec m in
        List.filter_map
          (fun _ -> Option.map snd (M.mutate ~rng ~node_ids:[ 0; 1; 2 ] P.msg_codec bytes))
          (List.init 20 Fun.id))
      paxos_corpus
  in
  checkb "same seed, same mutants" true (stream 7 = stream 7);
  checkb "different seed, different mutants" true (stream 7 <> stream 8)

(* ---------- decoding totality on junk (per application codec) ---------- *)

let prop_decode_totals name codec =
  QCheck.Test.make ~name:(name ^ " decode totals on junk") ~count:300 QCheck.string
    (fun junk -> match C.decode codec junk with Ok _ | Error _ -> true)

let qcheck = List.map QCheck_alcotest.to_alcotest

(* ---------- seeded storms with mutation on ---------- *)

(* Seed 42 is the pinned operating point: mutants flow, validators
   bounce a few, and every safety property still holds. A different
   seed can lose the agreement coin-toss (a forged Decided reaching a
   node with no acceptor state is indistinguishable from an honest
   late decision), which is exactly why the storm is seeded. *)
let byz_soak app =
  Alcotest.test_case (app ^ " byzantine storm") `Slow (fun () ->
      let r = X.run ~seed:42 ~byz:(-1) app in
      checki (app ^ ": no safety violation") 0 r.X.violations;
      checkb (app ^ ": recovered") true r.X.recovered;
      checkb (app ^ ": mutants delivered") true (r.X.byz_emitted > 0);
      checkb (app ^ ": validator bounced some") true (r.X.byz_rejected > 0);
      checkb (app ^ ": accounting consistent") true
        (r.X.byz_rejected + r.X.byz_accepted <= r.X.byz_emitted))

let test_byz_soak_replays app =
  Alcotest.test_case (app ^ " replay is bit-identical") `Slow (fun () ->
      let a = X.run ~seed:42 ~byz:(-1) app and b = X.run ~seed:42 ~byz:(-1) app in
      checki (app ^ ": same mutants emitted") a.X.byz_emitted b.X.byz_emitted;
      checki (app ^ ": same mutants rejected") a.X.byz_rejected b.X.byz_rejected;
      checki (app ^ ": same mutants accepted") a.X.byz_accepted b.X.byz_accepted;
      checki (app ^ ": same deliveries") a.X.delivered b.X.delivered)

let test_byz_off_reports_zero () =
  let r = X.run ~seed:42 "paxos" in
  checki "no mutants when off" 0 r.X.byz_emitted;
  checki "no rejections when off" 0 r.X.byz_rejected;
  checki "no acceptances when off" 0 r.X.byz_accepted

(* ---------- plan generation: knob off = byte-identical stream ---------- *)

let is_mutate = function F.Set_mutate _ | F.Heal_mutate _ -> true | _ -> false

(* The byzantine knobs draw from the plan RNG only when on, and draw
   after every other fault: switching them on adds mutate windows
   without perturbing any other fault's schedule, and a profile with
   [byz_rate = 0.] generates a plan byte-identical to one built before
   the knob existed. *)
let test_byz_knobs_preserve_rng_stream () =
  let base = Ch.default_profile in
  let per_link = { base with Ch.byz_links = 2; byz_rate = 0.25 } in
  let global = { base with Ch.byz_links = 0; byz_rate = 0.05 } in
  let p0 = F.events (Ch.generate ~seed:5 ~nodes:5 base) in
  checkb "no mutate events while off" true (not (List.exists (fun (_, e) -> is_mutate e) p0));
  List.iter
    (fun p ->
      let p1 = F.events (Ch.generate ~seed:5 ~nodes:5 p) in
      let rest = List.filter (fun (_, e) -> not (is_mutate e)) p1 in
      checkb "other faults byte-identical" true (p0 = rest);
      checkb "mutate windows added" true (List.exists (fun (_, e) -> is_mutate e) p1))
    [ per_link; global ]

let test_byz_global_channel_window () =
  let p = { Ch.default_profile with Ch.byz_links = 0; byz_rate = 0.05 } in
  let evs = F.events (Ch.generate ~seed:9 ~nodes:6 p) in
  let muts = List.filter (fun (_, e) -> is_mutate e) evs in
  match muts with
  | [ (t0, F.Set_mutate { rate; links = [] }); (t1, F.Heal_mutate { links = [] }) ] ->
      Alcotest.check (Alcotest.float 0.) "opens at t=0" 0. t0;
      Alcotest.check (Alcotest.float 0.) "rate as configured" 0.05 rate;
      Alcotest.check (Alcotest.float 0.) "heals at storm end" p.Ch.storm t1
  | _ -> Alcotest.fail "expected exactly one global mutate window"

let test_byz_per_link_windows () =
  let p = { Ch.default_profile with Ch.byz_links = 3; byz_rate = 0.25 } in
  let evs = List.map snd (F.events (Ch.generate ~seed:9 ~nodes:6 p)) in
  let sets =
    List.filter_map (function F.Set_mutate { links; _ } -> Some links | _ -> None) evs
  in
  let heals = List.filter_map (function F.Heal_mutate { links } -> Some links | _ -> None) evs in
  checkb "at most the requested links" true (List.length sets <= 3);
  checkb "at least one window survived collision-skipping" true (List.length sets >= 1);
  checki "every window healed" (List.length sets) (List.length heals);
  List.iter
    (function
      | [ (src, dst) ] ->
          checkb "directed link between distinct live nodes" true
            (src <> dst && src >= 0 && src < 6 && dst >= 0 && dst < 6)
      | links -> Alcotest.fail (Printf.sprintf "expected one link, got %d" (List.length links)))
    sets

let test_chaos_validates_byz_knobs () =
  Alcotest.check_raises "negative link count"
    (Invalid_argument "Chaos.generate: negative byzantine link count") (fun () ->
      ignore (Ch.generate ~seed:1 ~nodes:4 { Ch.default_profile with Ch.byz_links = -1 }));
  Alcotest.check_raises "rate above 1"
    (Invalid_argument "Chaos.generate: byzantine mutate rate outside [0,1]") (fun () ->
      ignore (Ch.generate ~seed:1 ~nodes:4 { Ch.default_profile with Ch.byz_rate = 1.5 }))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_pp_profile_shows_byz () =
  let p = { Ch.default_profile with Ch.byz_links = 2; byz_rate = 0.25 } in
  checkb "byz knob printed" true (contains (Format.asprintf "%a" Ch.pp_profile p) "byz=2@0.25")

(* ---------- fault plan validation for mutate windows ---------- *)

let test_faultplan_mutate_validation () =
  ignore
    (F.plan
       [
         (0., F.Set_mutate { rate = 0.2; links = [] });
         (2., F.Heal_mutate { links = [] });
         (3., F.Set_mutate { rate = 0.3; links = [ (0, 1) ] });
         (4., F.Heal_mutate { links = [ (0, 1) ] });
       ]);
  Alcotest.check_raises "overlapping windows of one scope"
    (Invalid_argument "Faultplan.plan: overlapping mutate windows") (fun () ->
      ignore
        (F.plan
           [
             (0., F.Set_mutate { rate = 0.1; links = [] });
             (1., F.Set_mutate { rate = 0.2; links = [] });
           ]));
  Alcotest.check_raises "heal of a scope never set"
    (Invalid_argument "Faultplan.plan: heal of a mutate never set") (fun () ->
      ignore (F.plan [ (0., F.Heal_mutate { links = [ (0, 1) ] }) ]));
  Alcotest.check_raises "self link"
    (Invalid_argument "Faultplan.plan: mutate link to self") (fun () ->
      ignore (F.plan [ (0., F.Set_mutate { rate = 0.1; links = [ (2, 2) ] }) ]));
  Alcotest.check_raises "rate outside [0,1]"
    (Invalid_argument "Faultplan.plan: mutate rate 1.5 outside [0,1]") (fun () ->
      ignore (F.plan [ (0., F.Set_mutate { rate = 1.5; links = [] }) ]))

let () =
  Alcotest.run "byzantine"
    [
      ( "mutator contract",
        [
          Alcotest.test_case "paxos codec" `Quick
            (mutator_contract "paxos" P.msg_codec paxos_corpus);
          Alcotest.test_case "kvstore codec" `Quick
            (mutator_contract "kvstore" K.msg_codec kvstore_corpus);
          Alcotest.test_case "gossip codec" `Quick
            (mutator_contract "gossip" G.msg_codec gossip_corpus);
          Alcotest.test_case "dht codec" `Quick (mutator_contract "dht" D.msg_codec dht_corpus);
          Alcotest.test_case "deterministic under a seeded stream" `Quick
            test_mutator_deterministic;
        ] );
      ( "decode totality",
        qcheck
          [
            prop_decode_totals "paxos" P.msg_codec;
            prop_decode_totals "kvstore" K.msg_codec;
            prop_decode_totals "gossip" G.msg_codec;
            prop_decode_totals "dht" D.msg_codec;
          ] );
      ( "storms",
        [
          byz_soak "paxos";
          byz_soak "kvstore";
          test_byz_soak_replays "paxos";
          test_byz_soak_replays "kvstore";
          Alcotest.test_case "knob off reports zero" `Slow test_byz_off_reports_zero;
        ] );
      ( "plans",
        [
          Alcotest.test_case "knobs preserve the RNG stream" `Quick
            test_byz_knobs_preserve_rng_stream;
          Alcotest.test_case "global channel window" `Quick test_byz_global_channel_window;
          Alcotest.test_case "per-link windows" `Quick test_byz_per_link_windows;
          Alcotest.test_case "profile validation" `Quick test_chaos_validates_byz_knobs;
          Alcotest.test_case "profile pp shows byz" `Quick test_pp_profile_shows_byz;
          Alcotest.test_case "mutate window validation" `Quick test_faultplan_mutate_validation;
        ] );
    ]
