(* The overload layer: bounded mailboxes with priority eviction, queue
   pressure visible to handlers, targeted chaff bursts, and the per-pair
   circuit breaker — all off by default at zero behavioural cost. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

(* Two message classes with distinct shed priorities, so priority
   eviction is observable; receivers also sample [Ctx.pressure] on
   every arrival. *)
module Prio_app = struct
  type msg = Lo of int | Hi of int

  type state = { self : Proto.Node_id.t; lo : int list; hi : int list; max_pressure : float }

  let name = "prio"
  let equal_state (a : state) b = a = b
  let msg_kind = function Lo _ -> "lo" | Hi _ -> "hi"
  let msg_bytes _ = 64
  let msg_codec = None
  let validate = None
  let durable = None
  let degraded = None
  let priority = Some (function Lo _ -> 0 | Hi _ -> 10)

  let pp_msg ppf = function
    | Lo n -> Format.fprintf ppf "lo(%d)" n
    | Hi n -> Format.fprintf ppf "hi(%d)" n

  let pp_state ppf st =
    Format.fprintf ppf "{lo=%d hi=%d}" (List.length st.lo) (List.length st.hi)

  let fingerprint = None
  let init (ctx : Proto.Ctx.t) = ({ self = ctx.self; lo = []; hi = []; max_pressure = 0. }, [])

  let receive =
    [
      Proto.Handler.v ~name:"any"
        ~guard:(fun _ ~src:_ _ -> true)
        (fun ctx st ~src:_ m ->
          let st = { st with max_pressure = Float.max st.max_pressure (Proto.Ctx.pressure ctx) } in
          match m with
          | Lo n -> ({ st with lo = n :: st.lo }, [])
          | Hi n -> ({ st with hi = n :: st.hi }, []));
    ]

  let on_timer _ st _ : state * msg Proto.Action.t list = (st, [])
  let properties : (state, msg) Proto.View.t Core.Property.t list = []
  let objectives : (state, msg) Proto.View.t Core.Objective.t list = []
  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Prio_app)

(* The same app with every message ranked equal, as gossip, dht and
   randtree are. *)
module Flat_app = struct
  include Prio_app

  let priority = None
end

module FE = Engine.Sim.Make (Flat_app)

let topology n =
  Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

let make ?(seed = 3) ?(n = 2) () =
  let eng = E.create ~seed ~jitter:0. ~topology:(topology n) () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to n - 1 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.1;
  eng

let lo_of eng node =
  match E.state_of eng (nid node) with Some st -> List.rev st.Prio_app.lo | None -> []

let hi_of eng node =
  match E.state_of eng (nid node) with Some st -> List.rev st.Prio_app.hi | None -> []

let max_pressure_of eng node =
  match E.state_of eng (nid node) with Some st -> st.Prio_app.max_pressure | None -> 0.

(* ---------- configuration validation ---------- *)

let test_config_validation () =
  let eng = make () in
  let raises msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> E.set_overload eng ~config:cfg)
  in
  raises "Sim.set_overload: negative mailbox_capacity"
    { E.default_overload with mailbox_capacity = -1 };
  raises "Sim.set_overload: service_time must be >= 0"
    { E.default_overload with service_time = -0.1 };
  (* An infinite rate would re-arm its tick after 0 s forever; only the
     raise is tested, no burst runs at that rate. *)
  List.iter
    (fun rate ->
      Alcotest.check_raises "Sim.overload: rate must be positive and finite"
        (Invalid_argument "Sim.overload: rate must be positive and finite") (fun () ->
          E.overload eng ~rate (nid 1)))
    [ 0.; -1.; Float.nan; Float.infinity ]

let test_limits_reported () =
  let eng = make () in
  checkb "off by default" true (E.overload_limits eng = None);
  E.set_overload eng;
  checkb "default config installed" true (E.overload_limits eng = Some E.default_overload)

(* ---------- bounded mailboxes and eviction ---------- *)

(* A burst of simultaneous sends into a capacity-4 mailbox: which four
   survive depends only on the messages' priorities. *)
let burst_under ?(cap = 4) msgs =
  let eng = make () in
  E.set_overload eng ~config:{ E.default_overload with mailbox_capacity = cap };
  List.iter (fun m -> E.inject eng ~src:(nid 0) ~dst:(nid 1) m) msgs;
  E.run_for eng 5.;
  eng

let test_drop_newest () =
  (* Four high-priority sends fill the queue; each low-priority arrival
     after them ranks below everything queued and is refused. *)
  let msgs =
    List.init 4 (fun i -> Prio_app.Hi (i + 1)) @ List.init 6 (fun i -> Prio_app.Lo (i + 1))
  in
  let eng = burst_under msgs in
  checkb "first four admitted, the rest refused" true
    (hi_of eng 1 = [ 1; 2; 3; 4 ] && lo_of eng 1 = []);
  checki "six sheds counted against the mailbox" 6 (E.stats eng).sheds_mailbox;
  checki "high-water mark is the capacity" 4 (E.stats eng).max_mailbox_depth

let test_drop_oldest () =
  (* Every message ranks equal, so each arrival at the full mailbox
     evicts the oldest queued one. *)
  let eng = FE.create ~seed:3 ~jitter:0. ~topology:(topology 2) () in
  FE.set_resolver eng Core.Resolver.random;
  FE.spawn eng (nid 0);
  FE.spawn eng (nid 1);
  FE.run_for eng 0.1;
  FE.set_overload eng ~config:{ FE.default_overload with mailbox_capacity = 4 };
  for i = 1 to 10 do
    FE.inject eng ~src:(nid 0) ~dst:(nid 1) (Prio_app.Lo i)
  done;
  FE.run_for eng 5.;
  let lo = match FE.state_of eng (nid 1) with Some st -> List.rev st.Prio_app.lo | None -> [] in
  checkb "each arrival evicted the oldest: last four survive" true (lo = [ 7; 8; 9; 10 ]);
  checki "six sheds" 6 (FE.stats eng).sheds_mailbox

let test_by_priority () =
  (* Five low-priority sends fill the queue, then five high-priority
     ones arrive: every Hi displaces the lowest-ranked victim (ties
     oldest-first), so the Los are wiped out one by one — including by
     the tie-breaking Lo 5 — and finally Hi 5 displaces its own
     eldest sibling. *)
  let msgs =
    List.init 5 (fun i -> Prio_app.Lo (i + 1)) @ List.init 5 (fun i -> Prio_app.Hi (i + 1))
  in
  let eng = burst_under msgs in
  Alcotest.check (Alcotest.list Alcotest.int) "every surviving message is high-priority" []
    (lo_of eng 1);
  Alcotest.check (Alcotest.list Alcotest.int) "the newest four his survive" [ 2; 3; 4; 5 ]
    (hi_of eng 1);
  checki "six messages shed along the way" 6 (E.stats eng).sheds_mailbox

(* ---------- pressure ---------- *)

let test_pressure_visible () =
  let eng = make () in
  E.set_overload eng ~config:{ E.default_overload with mailbox_capacity = 4 };
  checkb "empty mailbox, zero pressure" true (E.pressure eng (nid 1) = 0.);
  for i = 1 to 4 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Prio_app.Lo i)
  done;
  checki "four queued" 4 (E.mailbox_depth eng (nid 1));
  checkb "pressure saturates at 1" true (E.pressure eng (nid 1) = 1.);
  E.run_for eng 5.;
  checki "drained" 0 (E.mailbox_depth eng (nid 1));
  checkb "handlers saw non-zero Ctx.pressure during the burst" true (max_pressure_of eng 1 > 0.)

let test_pressure_zero_when_unbounded () =
  let eng = make () in
  E.set_overload eng;
  for i = 1 to 8 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Prio_app.Lo i)
  done;
  checkb "unbounded mailbox never reports pressure" true (E.pressure eng (nid 1) = 0.);
  checkb "depth is still tracked" true (E.mailbox_depth eng (nid 1) = 8)

(* ---------- chaff bursts ---------- *)

let test_overload_burst_bounded () =
  let eng = make () in
  E.set_overload eng ~config:{ E.default_overload with mailbox_capacity = 8 };
  E.overload eng ~rate:1000. (nid 1);
  E.run_for eng 2.;
  let s = E.stats eng in
  checkb "chaff flowed" true (s.chaff_sent > 500);
  checkb "mailbox never exceeded its bound" true (s.max_mailbox_depth <= 8);
  checkb "the bound actually bit" true (s.sheds_mailbox > 0);
  checkb "chaff is never handed to the app" true (lo_of eng 1 = [] && hi_of eng 1 = []);
  E.heal_overload eng (nid 1);
  let sent_at_heal = (E.stats eng).chaff_sent in
  E.run_for eng 2.;
  checki "healing stops the generator" sent_at_heal (E.stats eng).chaff_sent;
  checki "the queue drains" 0 (E.mailbox_depth eng (nid 1))

let test_heal_idempotent () =
  let eng = make () in
  E.overload eng (nid 1);
  E.heal_overload eng (nid 1);
  E.heal_overload eng (nid 1);
  E.run_for eng 1.;
  checkb "overload installs the layer on demand" true (E.overload_limits eng <> None)

(* A 2000/s chaff burst at one paxos replica for two virtual seconds,
   each queued message costing 0.5 ms of service: unbounded, the
   backlog and the queue delay every later real message pays behind it
   grow for the whole burst; bounded at 64 with priority shedding, the
   chaff is shed and real traffic keeps a short queue. *)
module Pax = Apps.Paxos.Make (struct
  let population = 5
  let client_period = 0.25
  let retry_timeout = 2.0
end)

module PE = Engine.Sim.Make (Pax)

let paxos_burst ~capacity =
  let topology =
    Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = PE.create ~seed:11 ~jitter:0. ~topology () in
  let sink = Obs.Sink.create () in
  PE.set_obs eng (Some sink);
  PE.set_overload eng ~config:{ mailbox_capacity = capacity; service_time = 5e-4 };
  PE.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to 4 do
    PE.spawn eng (nid i)
  done;
  PE.run_for eng 2.;
  PE.overload eng ~rate:2000. (nid 0);
  PE.run_for eng 2.;
  PE.heal_overload eng (nid 0);
  PE.run_for eng 4.;
  (* Worst per-link p99 of real deliveries: the sink never sees chaff. *)
  let p99 =
    List.fold_left
      (fun acc j ->
        match (Obs.Json.member "name" j, Obs.Json.member "p99" j) with
        | Some (Obs.Json.Str "engine_delivery_latency_ms"), Some (Obs.Json.Float p) ->
            Float.max acc p
        | _ -> acc)
      0.
      (Obs.Registry.to_json ~include_volatile:true sink.Obs.Sink.registry)
  in
  (p99, PE.stats eng)

let test_paxos_burst_p99 () =
  let p99_bounded, s = paxos_burst ~capacity:64 in
  let p99_unbounded, _ = paxos_burst ~capacity:0 in
  checkb
    (Printf.sprintf "bounded p99 %.1f ms below unbounded %.1f ms" p99_bounded p99_unbounded)
    true (p99_bounded < p99_unbounded);
  checkb "mailbox never exceeded 64" true (s.max_mailbox_depth <= 64);
  checkb "the burst was shed" true (s.sheds_mailbox > 0)

(* ---------- circuit breaker ---------- *)

module Cb = Net.Circuit_breaker

let vt = Dsim.Vtime.of_seconds

let test_breaker_state_machine () =
  (* The defaults: three failures trip, a 5 s cooldown, one probe. *)
  let cb = Cb.create () in
  let st at = Cb.state cb ~src:0 ~dst:1 ~now:(vt at) in
  checkb "unknown pairs are closed" true (st 0. = Cb.Closed);
  Cb.record_failure cb ~src:0 ~dst:1 ~now:(vt 0.5);
  Cb.record_failure cb ~src:0 ~dst:1 ~now:(vt 1.);
  checkb "two failures below threshold stay closed" true (st 1. = Cb.Closed);
  Cb.record_failure cb ~src:0 ~dst:1 ~now:(vt 2.);
  checkb "threshold trips open" true (st 2. = Cb.Open);
  checkb "open refuses sends" false (Cb.allow cb ~src:0 ~dst:1 ~now:(vt 3.));
  checkb "other pairs unaffected" true (Cb.allow cb ~src:1 ~dst:0 ~now:(vt 3.));
  checkb "cooldown elapses into half-open" true (st 7.5 = Cb.Half_open);
  checkb "half-open admits one probe" true (Cb.acquire cb ~src:0 ~dst:1 ~now:(vt 7.5));
  checkb "probe budget exhausted" false (Cb.acquire cb ~src:0 ~dst:1 ~now:(vt 7.6));
  Cb.record_failure cb ~src:0 ~dst:1 ~now:(vt 8.);
  checkb "probe failure re-opens" true (st 8. = Cb.Open);
  checkb "and restarts the cooldown" true (st 12. = Cb.Open);
  Cb.record_success cb ~src:0 ~dst:1;
  checkb "success closes from any state" true (st 12. = Cb.Closed);
  checki "nothing open afterwards" 0 (Cb.open_pairs cb ~now:(vt 12.))

let test_breaker_trip () =
  let cb = Cb.create () in
  Cb.trip cb ~src:0 ~dst:1 ~now:(vt 1.);
  checkb "external evidence opens instantly" true (Cb.state cb ~src:0 ~dst:1 ~now:(vt 1.) = Cb.Open);
  Cb.trip cb ~src:0 ~dst:1 ~now:(vt 2.);
  checkb "idempotent while open" true (Cb.state cb ~src:0 ~dst:1 ~now:(vt 2.) = Cb.Open)

let test_breaker_in_engine () =
  (* Reliable delivery into a severed link with the breaker on: the
     first timeout trips the pair open, after which retransmission
     attempts are refused on the sender side instead of hitting the
     wire. Three seconds in, the default 5 s cooldown still holds the
     pair open. *)
  let eng = make () in
  E.enable_reliable eng ~config:{ E.default_reliable with jitter = 0.; max_retries = 8 };
  E.enable_breaker eng;
  Net.Netem.cut_bidirectional (E.netem eng) 0 1;
  for i = 1 to 3 do
    E.inject eng ~src:(nid 0) ~dst:(nid 1) (Prio_app.Lo i)
  done;
  E.run_for eng 3.;
  let s = E.stats eng in
  checkb "retransmission attempts were refused" true (s.breaker_skips > 0);
  checkb "the pair is open" true
    (Cb.state (E.circuit_breaker eng) ~src:0 ~dst:1 ~now:(E.now eng) = Cb.Open)

(* ---------- determinism ---------- *)

let chaffed_run () =
  let eng = make ~seed:17 ~n:3 () in
  E.set_overload eng ~config:{ E.default_overload with mailbox_capacity = 6 };
  for i = 1 to 20 do
    E.inject eng ~after:(0.05 *. float_of_int i) ~src:(nid 0) ~dst:(nid 2)
      (if i mod 2 = 0 then Prio_app.Hi i else Prio_app.Lo i)
  done;
  E.overload eng ~rate:400. (nid 2);
  E.run_for eng 2.;
  E.heal_overload eng (nid 2);
  E.run_for eng 3.;
  let s = E.stats eng in
  (lo_of eng 2, hi_of eng 2, s.sheds_mailbox, s.chaff_sent, s.max_mailbox_depth)

let test_deterministic_replay () =
  checkb "same seed, same shed trajectory" true (chaffed_run () = chaffed_run ())

(* The acceptance bar for the whole layer: installing it with every knob
   off changes nothing — same app trajectory, same message counters — so
   seeded runs predating the layer stay byte-identical. *)
let plain_run ~overload () =
  let eng = make ~seed:23 ~n:3 () in
  if overload then E.set_overload eng ~config:E.default_overload;
  Net.Netem.set_faults (E.netem eng)
    {
      (Net.Netem.global_faults (E.netem eng)) with
      Net.Netem.duplicate_rate = 0.2;
      duplicate_copies = 1;
    };
  for i = 1 to 15 do
    E.inject eng ~after:(0.03 *. float_of_int i) ~src:(nid 0)
      ~dst:(nid (1 + (i mod 2)))
      (if i mod 3 = 0 then Prio_app.Hi i else Prio_app.Lo i)
  done;
  E.run_for eng 10.;
  let s = E.stats eng in
  ( lo_of eng 1,
    hi_of eng 1,
    lo_of eng 2,
    hi_of eng 2,
    s.messages_delivered,
    s.messages_duplicated,
    s.events_processed )

let test_knobs_off_byte_identical () =
  checkb "default overload config changes no behaviour" true
    (plain_run ~overload:false () = plain_run ~overload:true ())

(* An idle layer (every knob off) must not retain anything per
   delivery: on the layer-ladder deployment (5 paxos replicas, 20 ms
   links, seed 7), the words it keeps beyond the same engine without
   the layer may not grow between 20 s and 160 s of virtual time. *)
let test_idle_retains_nothing () =
  let topology =
    Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let engine ~overload =
    let eng = PE.create ~seed:7 ~jitter:0. ~topology () in
    PE.set_resolver eng Apps.Paxos.self_resolver;
    for i = 0 to 4 do
      PE.spawn eng (nid i)
    done;
    if overload then PE.set_overload eng ~config:PE.default_overload;
    eng
  in
  let plain = engine ~overload:false and idle = engine ~overload:true in
  let extra_words_at s =
    PE.run_until plain (Dsim.Vtime.of_seconds s);
    PE.run_until idle (Dsim.Vtime.of_seconds s);
    Obj.reachable_words (Obj.repr idle) - Obj.reachable_words (Obj.repr plain)
  in
  let early = extra_words_at 20. in
  let late = extra_words_at 160. in
  checkb
    (Printf.sprintf "extra words %d at 20 s, %d at 160 s (%d deliveries): flat within 1000"
       early late (PE.stats idle).messages_delivered)
    true
    (abs (late - early) <= 1000)

let () =
  Alcotest.run "overload"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "limits reported" `Quick test_limits_reported;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "drop newest" `Quick test_drop_newest;
          Alcotest.test_case "drop oldest" `Quick test_drop_oldest;
          Alcotest.test_case "by priority" `Quick test_by_priority;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "visible to engine and handlers" `Quick test_pressure_visible;
          Alcotest.test_case "zero when unbounded" `Quick test_pressure_zero_when_unbounded;
        ] );
      ( "bursts",
        [
          Alcotest.test_case "bounded chaff burst" `Quick test_overload_burst_bounded;
          Alcotest.test_case "heal is idempotent" `Quick test_heal_idempotent;
          Alcotest.test_case "shedding cuts paxos p99" `Quick test_paxos_burst_p99;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "trip" `Quick test_breaker_trip;
          Alcotest.test_case "engine integration" `Quick test_breaker_in_engine;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-identical replay" `Quick test_deterministic_replay;
          Alcotest.test_case "knobs off, byte-identical" `Quick test_knobs_off_byte_identical;
          Alcotest.test_case "idle layer retains nothing" `Quick test_idle_retains_nothing;
        ] );
    ]
