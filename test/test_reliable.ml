(* The opt-in reliable-delivery layer: ack/retransmit with exponential
   backoff, receiver-side dedup (covering Netem's duplication fault,
   which shares the retransmission sequence number), a bounded retry
   budget, and an explicit give-up notification to the sending app. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

(* A counting app: every ping payload is recorded on arrival, so
   at-most-once delivery is directly observable; give-up notifications
   land in [giveups] through the synthetic timer id. *)
module Count_app = struct
  type msg = Ping of int

  type state = { self : Proto.Node_id.t; got : int list; giveups : int }

  let name = "counter"
  let equal_state (a : state) b = a = b
  let msg_kind (Ping _) = "ping"
  let msg_bytes _ = 32
  let msg_codec = None
  let validate = None
  let durable = None
  let degraded = None
  let priority = None

  let pp_msg ppf (Ping n) = Format.fprintf ppf "ping(%d)" n

  let pp_state ppf st = Format.fprintf ppf "{got=%d}" (List.length st.got)
  let fingerprint = None
  let init (ctx : Proto.Ctx.t) = ({ self = ctx.self; got = []; giveups = 0 }, [])

  let receive =
    [
      Proto.Handler.v ~name:"ping"
        ~guard:(fun _ ~src:_ _ -> true)
        (fun _ st ~src:_ (Ping n) -> ({ st with got = n :: st.got }, []));
    ]

  let on_timer _ st id : state * msg Proto.Action.t list =
    if String.starts_with ~prefix:"rel.giveup:" id then ({ st with giveups = st.giveups + 1 }, [])
    else (st, [])

  let properties : (state, msg) Proto.View.t Core.Property.t list = []
  let objectives : (state, msg) Proto.View.t Core.Objective.t list = []
  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Count_app)

let topology ?(loss = 0.) n =
  Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss)

let make ?loss ?(seed = 3) ?(n = 2) () =
  let eng = E.create ~seed ~jitter:0. ~topology:(topology ?loss n) () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to n - 1 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.1;
  eng

let got eng node =
  match E.state_of eng (nid node) with Some st -> List.rev st.Count_app.got | None -> []

let giveups_of eng node =
  match E.state_of eng (nid node) with Some st -> st.Count_app.giveups | None -> 0

(* ---------- recovery from loss ---------- *)

let test_retransmit_through_loss () =
  (* A 50%-lossy link: some of the 20 tracked pings need several tries,
     but the retry budget (5 tries beyond the first) pushes the odds of
     total loss per ping to 0.5^6 ~= 1.5%; seed 9 delivers and acks all
     of them. Unreliable, the same link loses several. *)
  let eng = make ~loss:0.5 ~seed:9 () in
  E.enable_reliable eng;
  for i = 1 to 20 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping i)
  done;
  E.run_for eng 30.;
  let s = E.stats eng in
  checki "all pings arrived" 20 (List.length (got eng 1));
  checkb "needed retransmissions" true (s.rel_retransmits > 0);
  checkb "sends acked" true (s.rel_acked > 0);
  checki "every send eventually acked" 0 s.rel_giveups

let test_unreliable_baseline_loses () =
  let eng = make ~loss:0.6 () in
  for i = 1 to 20 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping i)
  done;
  E.run_for eng 30.;
  checkb "lossy link loses fire-and-forget sends" true (List.length (got eng 1) < 20)

(* ---------- dedup: retransmissions and Netem duplicates ---------- *)

let test_at_most_once_under_duplication () =
  (* Duplication fault at full blast: every delivery spawns 2 ghost
     copies. They carry the same sequence number as the original, so
     the receiver's seen-set drops them and the app observes each
     payload exactly once. *)
  let eng = make () in
  E.enable_reliable eng;
  Net.Netem.set_faults (E.netem eng)
    { (Net.Netem.global_faults (E.netem eng)) with Net.Netem.duplicate_rate = 1.; duplicate_copies = 2 };
  for i = 1 to 10 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping i)
  done;
  E.run_for eng 10.;
  let arrived = got eng 1 in
  checki "every payload exactly once" 10 (List.length arrived);
  checki "no payload twice" 10 (List.length (List.sort_uniq compare arrived));
  let s = E.stats eng in
  checkb "ghost copies were suppressed" true (s.rel_dup_dropped > 0);
  checkb "the fault layer really duplicated" true (s.messages_duplicated > 0)

let test_lossy_retransmit_still_at_most_once () =
  (* Loss and duplication together: retransmissions race ghost copies,
     yet each payload still lands at most once. *)
  let eng = make ~loss:0.4 ~seed:5 () in
  E.enable_reliable eng;
  Net.Netem.set_faults (E.netem eng)
    { (Net.Netem.global_faults (E.netem eng)) with Net.Netem.duplicate_rate = 0.5; duplicate_copies = 1 };
  for i = 1 to 15 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping i)
  done;
  E.run_for eng 30.;
  let arrived = got eng 1 in
  checki "no payload delivered twice" (List.length arrived)
    (List.length (List.sort_uniq compare arrived))

(* ---------- retry budget and give-up ---------- *)

let test_giveup_notifies_sender () =
  let eng = make () in
  E.enable_reliable eng;
  (* Sever the link both ways: data cannot arrive, acks cannot return. *)
  Net.Netem.cut_bidirectional (E.netem eng) 0 1;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping 1);
  (* Budget: 0.25 + 0.5 + 1 + 2 + 4 + 8 (+10% jitter each) < 20s. *)
  E.run_for eng 25.;
  let s = E.stats eng in
  checki "gave up once" 1 s.rel_giveups;
  checki "spent the whole budget" E.default_reliable.max_retries s.rel_retransmits;
  checki "sender was told" 1 (giveups_of eng 0);
  checki "nothing arrived" 0 (List.length (got eng 1))

let test_custom_budget () =
  let eng = make () in
  E.enable_reliable eng
    ~config:{ E.default_reliable with max_retries = 2; jitter = 0. };
  Net.Netem.cut_bidirectional (E.netem eng) 0 1;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping 1);
  E.run_for eng 10.;
  let s = E.stats eng in
  checki "two retries then give up" 2 s.rel_retransmits;
  checki "one give-up" 1 s.rel_giveups

let test_config_validation () =
  let eng = make () in
  let raises msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> E.enable_reliable eng ~config:cfg)
  in
  raises "Sim.enable_reliable: base_timeout must be positive"
    { E.default_reliable with base_timeout = 0. };
  raises "Sim.enable_reliable: backoff must be >= 1" { E.default_reliable with backoff = 0.5 };
  raises "Sim.enable_reliable: negative max_retries" { E.default_reliable with max_retries = -1 };
  raises "Sim.enable_reliable: negative jitter" { E.default_reliable with jitter = -0.1 };
  raises "Sim.enable_reliable: ack_bytes must be positive" { E.default_reliable with ack_bytes = 0 }

(* ---------- crash during the retry window ---------- *)

let crash_mid_retry_run () =
  (* The receiver dies while retransmissions toward it are still in
     flight, then comes back inside the retry budget. Pending sends keep
     retrying across the outage, late retransmissions of pre-crash
     deliveries race the restart, and dedup must still hold. *)
  let eng = make ~loss:0.3 ~seed:13 () in
  E.enable_reliable eng ~config:{ E.default_reliable with max_retries = 8 };
  for i = 1 to 10 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Count_app.Ping i)
  done;
  E.run_for eng 0.6;
  E.kill eng (nid 1);
  E.run_for eng 1.5;
  E.restart eng (nid 1);
  E.run_for eng 60.;
  let s = E.stats eng in
  ( got eng 1,
    s.rel_retransmits,
    s.rel_acked,
    s.rel_giveups,
    s.rel_dup_dropped,
    s.messages_delivered )

let test_crash_during_retransmit () =
  let ((arrived, retransmits, acked, _, _, _) as a) = crash_mid_retry_run () in
  checkb "retransmissions spanned the crash" true (retransmits > 0);
  checkb "sends completed after the restart" true (acked > 0);
  checki "at most once despite the outage" (List.length arrived)
    (List.length (List.sort_uniq compare arrived));
  checkb "crash-recovery replay is bit-identical" true (a = crash_mid_retry_run ())

(* ---------- determinism ---------- *)

let lossy_run () =
  let eng = make ~loss:0.5 ~seed:11 ~n:3 () in
  E.enable_reliable eng;
  Net.Netem.set_faults (E.netem eng)
    { (Net.Netem.global_faults (E.netem eng)) with Net.Netem.duplicate_rate = 0.3; duplicate_copies = 1 };
  for i = 1 to 12 do
    E.inject eng ~src:(nid 0) ~dst:(nid (1 + (i mod 2))) (Count_app.Ping i)
  done;
  E.run_for eng 40.;
  let s = E.stats eng in
  ( got eng 1,
    got eng 2,
    s.rel_retransmits,
    s.rel_acked,
    s.rel_dup_dropped,
    s.rel_giveups,
    s.messages_delivered )

let test_deterministic_replay () =
  let a = lossy_run () and b = lossy_run () in
  checkb "same seed, same reliable-delivery trajectory" true (a = b)

let () =
  Alcotest.run "reliable"
    [
      ( "loss",
        [
          Alcotest.test_case "retransmits through loss" `Quick test_retransmit_through_loss;
          Alcotest.test_case "fire-and-forget baseline loses" `Quick
            test_unreliable_baseline_loses;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "at most once under duplication" `Quick
            test_at_most_once_under_duplication;
          Alcotest.test_case "loss + duplication still at most once" `Quick
            test_lossy_retransmit_still_at_most_once;
        ] );
      ( "budget",
        [
          Alcotest.test_case "give-up notifies the sender" `Quick test_giveup_notifies_sender;
          Alcotest.test_case "custom retry budget" `Quick test_custom_budget;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "crash",
        [ Alcotest.test_case "crash during retransmit" `Quick test_crash_during_retransmit ] );
      ( "determinism",
        [ Alcotest.test_case "bit-identical replay" `Quick test_deterministic_replay ] );
    ]
