(* Behavioural tests of the simulation engine, driven through a small
   ping/pong/choice application. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

module Toy = struct
  let path_schema = Core.Choice.schema [ "good" ]

  type msg = Ping of int | Pong of int | Kick

  type state = { self : Proto.Node_id.t; pings : int; pongs : int list; score : int; ticks : int }

  let name = "toy"
  let equal_state (a : state) b = a = b

  let msg_kind = function Ping _ -> "ping" | Pong _ -> "pong" | Kick -> "kick"
  let msg_bytes = function Ping _ | Pong _ -> 64 | Kick -> 16
  let msg_codec = None
  let validate = None
  let fingerprint = None
  let durable = None
  let degraded = None
  let priority = None

  let pp_msg ppf = function
    | Ping n -> Format.fprintf ppf "ping(%d)" n
    | Pong n -> Format.fprintf ppf "pong(%d)" n
    | Kick -> Format.fprintf ppf "kick"

  let pp_state ppf st =
    Format.fprintf ppf "{pings=%d pongs=%d score=%d ticks=%d}" st.pings (List.length st.pongs)
      st.score st.ticks

  let init (ctx : Proto.Ctx.t) =
    ( { self = ctx.self; pings = 0; pongs = []; score = 0; ticks = 0 },
      [ Proto.Action.set_timer ~id:"tick" ~after:1.0 ] )

  let receive =
    [
      Proto.Handler.v ~name:"ping"
        ~guard:(fun _ ~src:_ m -> match m with Ping _ -> true | Pong _ | Kick -> false)
        (fun _ st ~src m ->
          match m with
          | Ping n -> ({ st with pings = st.pings + 1 }, [ Proto.Action.send ~dst:src (Pong n) ])
          | Pong _ | Kick -> (st, []));
      Proto.Handler.v ~name:"pong"
        ~guard:(fun _ ~src:_ m -> match m with Pong _ -> true | Ping _ | Kick -> false)
        (fun _ st ~src:_ m ->
          match m with
          | Pong n -> ({ st with pongs = n :: st.pongs }, [])
          | Ping _ | Kick -> (st, []));
      Proto.Handler.v ~name:"kick"
        ~guard:(fun _ ~src:_ m -> match m with Kick -> true | Ping _ | Pong _ -> false)
        (fun ctx st ~src:_ _ ->
          (* Alternative 0 is harmful, alternative 1 beneficial: a
             lookahead (or a trained bandit) must prefer index 1, while
             the "first" resolver walks into the bad branch. *)
          let delta =
            ctx.choose
              (Core.Choice.make ~label:"path" ~schema:path_schema
                 [ Core.Choice.alt ~features:[| 0. |] (-1); Core.Choice.alt ~features:[| 1. |] 1 ])
          in
          ({ st with score = st.score + delta }, []));
    ]

  let on_timer _ctx st id : state * msg Proto.Action.t list =
    match id with "tick" -> ({ st with ticks = st.ticks + 1 }, []) | _ -> (st, [])

  let properties : (state, msg) Proto.View.t Core.Property.t list =
    [
      Core.Property.safety ~name:"score-floor" (fun view ->
          Proto.View.fold (fun ok _ st -> ok && st.score > -3) true view);
    ]

  let objectives : (state, msg) Proto.View.t Core.Objective.t list =
    [
      Core.Objective.v ~name:"score" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int st.score) 0. view);
    ]

  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Toy)

let topology = Net.Topology.uniform ~n:4 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let make ?(seed = 1) () =
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_resolver eng Core.Resolver.first;
  eng

let spawn_all eng k =
  for i = 0 to k - 1 do
    E.spawn eng (nid i)
  done

let state_exn eng i =
  match E.state_of eng (nid i) with Some s -> s | None -> Alcotest.fail "node missing"

let test_boot_and_timer () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.5;
  checkb "alive" true (E.alive eng (nid 0));
  checki "no tick yet" 0 (state_exn eng 0).Toy.ticks;
  E.run_for eng 1.0;
  checki "tick fired once" 1 (state_exn eng 0).Toy.ticks;
  E.run_for eng 5.0;
  checki "one-shot timer" 1 (state_exn eng 0).Toy.ticks

let test_message_roundtrip () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.1;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 7);
  E.run_for eng 1.0;
  checki "ping received" 1 (state_exn eng 1).Toy.pings;
  Alcotest.check (Alcotest.list Alcotest.int) "pong returned" [ 7 ] (state_exn eng 0).Toy.pongs;
  checki "two deliveries" 2 (E.stats eng).messages_delivered;
  checki "kind counter ping" 1 (E.delivered_of_kind eng "ping");
  checki "kind counter pong" 1 (E.delivered_of_kind eng "pong")

let test_kill_and_restart () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.1;
  E.kill eng (nid 1);
  checkb "dead" false (E.alive eng (nid 1));
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1);
  E.run_for eng 1.0;
  checki "dropped to dead node" 1 (E.stats eng).messages_dropped;
  E.restart eng (nid 1);
  E.run_for eng 1.5;
  let st = state_exn eng 1 in
  checki "fresh state" 0 st.Toy.pings;
  checki "fresh timer fired" 1 st.Toy.ticks

let test_restart_invalidates_old_timers () =
  let eng = make () in
  spawn_all eng 1;
  (* Kill just before the tick fires, restart immediately: the old
     timer generation must not tick the new incarnation twice. *)
  E.run_for eng 0.9;
  E.kill eng (nid 0);
  E.restart eng (nid 0);
  E.run_for eng 2.0;
  checki "only the new timer ticked" 1 (state_exn eng 0).Toy.ticks

let test_injection_and_schedule_edges () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.1;
  Alcotest.check_raises "negative inject delay" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> E.inject eng ~after:(-1.) ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1));
  Alcotest.check_raises "negative run_for" (Invalid_argument "Vtime.add: negative delta")
    (fun () -> E.run_for eng (-1.));
  (* Injecting at exactly now routes immediately through the emulator. *)
  E.inject eng ~after:0. ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 5);
  E.run_for eng 1.;
  checki "immediate inject delivered" 1 (state_exn eng 1).Toy.pings

let test_spawn_on_killed_node_rejected () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  E.kill eng (nid 0);
  (* A killed node is still a known identity: spawn refuses, restart is
     the way back. *)
  Alcotest.check_raises "spawn on corpse" (Invalid_argument "Sim.spawn: node already exists")
    (fun () -> E.spawn eng (nid 0));
  E.restart eng (nid 0);
  E.run_for eng 0.1;
  checkb "restart works" true (E.alive eng (nid 0))

let test_spawn_errors () =
  let eng = make () in
  E.spawn eng (nid 0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Sim.spawn: node already exists") (fun () ->
      E.spawn eng (nid 0));
  Alcotest.check_raises "beyond topology" (Invalid_argument "Sim: node id exceeds topology size")
    (fun () -> E.spawn eng (nid 99));
  E.run_for eng 0.1;
  (* Restart is idempotent: on a live node it is a no-op, not an error. *)
  E.restart eng (nid 0);
  E.run_for eng 0.1;
  Alcotest.(check bool) "restart alive is a no-op" true (E.alive eng (nid 0))

let test_determinism () =
  let run () =
    let eng = make ~seed:7 () in
    spawn_all eng 4;
    for i = 0 to 20 do
      E.inject eng ~after:(0.1 *. float_of_int i) ~src:(nid 0) ~dst:(nid (1 + (i mod 3)))
        (Toy.Ping i)
    done;
    E.run_for eng 10.;
    ((E.stats eng).messages_delivered, (state_exn eng 1).Toy.pings, Dsim.Vtime.to_seconds (E.now eng))
  in
  checkb "bit-identical runs" true (run () = run ())

let test_filters () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.1;
  E.add_filter eng ~name:"no-pings" (fun ~kind ~src:_ ~dst:_ -> String.equal kind "ping");
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1);
  E.run_for eng 1.0;
  checki "filtered" 1 (E.stats eng).messages_filtered;
  checki "not handled" 0 (state_exn eng 1).Toy.pings;
  E.clear_filters eng;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 2);
  E.run_for eng 1.0;
  checki "delivered after clear" 1 (state_exn eng 1).Toy.pings

let test_resolver_choice_and_log () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  E.set_resolver eng (Core.Resolver.greedy ~feature:"good" ~maximize:true ());
  E.inject eng ~src:(nid 0) ~dst:(nid 0) Toy.Kick;
  E.run_for eng 1.0;
  checki "greedy picked good" 1 (state_exn eng 0).Toy.score;
  let log = E.decision_sites eng in
  checki "one decision" 1 (List.length log);
  let _, site, idx = List.hd log in
  Alcotest.check Alcotest.string "label" "path" site.Core.Choice.site_label;
  checki "index" 1 idx;
  checki "stats decisions" 1 (E.stats eng).decisions

let test_violation_detection () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  (* 'first' resolver always picks the harmful branch; score-floor
     breaks once the score reaches -3. *)
  for i = 1 to 4 do
    E.inject eng ~after:(0.1 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
  done;
  E.run_for eng 2.0;
  checkb "violated" true (List.length (E.violations eng) >= 1);
  checkb "named" true
    (List.for_all (fun (_, n) -> String.equal n "score-floor") (E.violations eng))

let test_lookahead_avoids_bad_branch () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  E.set_lookahead eng { E.default_lookahead with horizon = 0.5; max_events = 50 };
  for i = 1 to 5 do
    E.inject eng ~after:(0.2 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
  done;
  E.run_for eng 3.0;
  checki "all five choices good" 5 (state_exn eng 0).Toy.score;
  checkb "forked" true ((E.stats eng).lookahead_forks >= 10)

let test_bandit_learns_online () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  let bandit = Core.Bandit.create () in
  E.set_resolver eng (Core.Bandit.to_resolver bandit);
  E.enable_reward_feedback eng ~window:0.5;
  for i = 1 to 40 do
    E.inject eng ~after:(float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
  done;
  E.run_for eng 60.;
  checkb "bandit went positive" true ((state_exn eng 0).Toy.score > 10)

let test_hybrid_cache () =
  let eng = make () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  let bandit = Core.Bandit.create () in
  E.set_lookahead eng ~cache:(bandit, 2)
    { E.default_lookahead with horizon = 0.5; max_events = 50 };
  for i = 1 to 20 do
    E.inject eng ~after:(0.5 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
  done;
  E.run_for eng 15.;
  checki "all decisions good (lookahead + trained cache agree)" 20 (state_exn eng 0).Toy.score;
  (match E.cache_stats eng with
  | Some (hits, misses) ->
      checkb "cache eventually hit" true (hits > 0);
      checkb "early misses trained it" true (misses >= 2);
      checki "every decision accounted" 20 (hits + misses)
  | None -> Alcotest.fail "cache stats missing");
  Alcotest.check Alcotest.string "name" "lookahead+cache/random" (E.resolver_name eng)

let test_playbook_offline_training () =
  let module PB = Runtime.Playbook.Make (Toy) in
  let pb =
    PB.train
      ~lookahead:{ PB.E.default_lookahead with horizon = 0.5; max_events = 50 }
      ~episodes:2 ~topology
      ~scenario:(fun eng ->
        PB.E.spawn eng (nid 0);
        PB.E.run_for eng 0.1;
        for i = 1 to 10 do
          PB.E.inject eng ~after:(0.5 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
        done;
        PB.E.run_for eng 10.)
      ()
  in
  checkb "training explored" true (PB.training_forks pb > 0);
  checkb "contexts learned" true (PB.contexts_learned pb > 0);
  (* Deploy the frozen policy on a fresh engine: it must pick the good
     branch without any forking. *)
  let eng = make ~seed:99 () in
  spawn_all eng 1;
  E.run_for eng 0.1;
  E.set_resolver eng (PB.resolver pb);
  for i = 1 to 10 do
    E.inject eng ~after:(0.5 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
  done;
  E.run_for eng 10.;
  checki "frozen policy picks good" 10 (state_exn eng 0).Toy.score;
  checki "no runtime forks" 0 (E.stats eng).lookahead_forks

let test_fork_independence () =
  let eng = make () in
  spawn_all eng 2;
  E.run_for eng 0.1;
  E.inject eng ~after:0.5 ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1);
  let fork = E.fork eng in
  E.run_for fork 5.0;
  checki "fork processed" 1 (state_exn fork 1).Toy.pings;
  checki "original untouched" 0 (state_exn eng 1).Toy.pings;
  checkb "times diverged" true Dsim.Vtime.(E.now eng < E.now fork)

(* Everything the network model and the failure detector hold about
   pairs among [n] endpoints, as comparable data. *)
let net_snapshot ?(n = 4) ~model ~fd ~now () =
  let pairs = List.concat_map (fun s -> List.init n (fun d -> (s, d))) (List.init n Fun.id) in
  ( Net.Netmodel.known_pairs model,
    List.map
      (fun (src, dst) ->
        ( Net.Netmodel.latency model ~src ~dst ~now,
          Net.Netmodel.bandwidth model ~src ~dst ~now,
          Net.Netmodel.loss model ~src ~dst ~now,
          Net.Failure_detector.samples fd ~observer:src ~peer:dst,
          Net.Failure_detector.phi fd ~observer:src ~peer:dst ~now ))
      pairs )

let test_fork_isolates_network_state () =
  let eng = make () in
  spawn_all eng 3;
  E.run_for eng 0.1;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1);
  E.run_for eng 1.0;
  let snap e =
    net_snapshot ~model:(E.netmodel e) ~fd:(E.failure_detector e) ~now:(Dsim.Vtime.of_seconds 50.) ()
  in
  let pings e = E.delivered_of_kind e "ping" in
  let before = snap eng in
  let fork = E.fork eng in
  checkb "fork starts from the parent's model" true (snap fork = before);
  E.inject fork ~src:(nid 0) ~dst:(nid 2) (Toy.Ping 2);
  E.inject fork ~src:(nid 2) ~dst:(nid 1) (Toy.Ping 3);
  E.run_for fork 2.0;
  checkb "fork observed new pairs" true (snap fork <> before);
  checkb "parent model and detector untouched" true (snap eng = before);
  checki "parent kind count untouched" 1 (pings eng);
  checki "fork kind count" 3 (pings fork);
  let fork_after = snap fork in
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (Toy.Ping 4);
  E.inject eng ~src:(nid 1) ~dst:(nid 2) (Toy.Ping 5);
  E.run_for eng 2.0;
  checkb "parent observed" true (snap eng <> before);
  checkb "fork untouched by the parent" true (snap fork = fork_after);
  checki "fork kind count untouched" 3 (pings fork);
  checki "parent kind count" 3 (pings eng)

(* A fault-free RandTree joining under lookahead: every branch runs
   hundreds of deliveries on a fork, yet the parent's model and
   detector hold exactly one latency, one loss and one heartbeat sample
   per delivery the parent itself made. *)
let test_lookahead_branches_leave_models_alone () =
  let module Tree = Apps.Randtree_choice.Default in
  let module TE = Engine.Sim.Make (Tree) in
  let n = 12 in
  let topology =
    Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let t = TE.create ~seed:8 ~jitter:0. ~topology () in
  TE.set_lookahead t { TE.default_lookahead with horizon = 3.0; max_events = 600 };
  for i = 0 to n - 1 do
    TE.spawn t ~after:(0.3 *. float_of_int i) (nid i)
  done;
  TE.run_for t 15.;
  let st = TE.stats t in
  checkb "lookahead forked" true (st.lookahead_forks > 0);
  let now = TE.now t and model = TE.netmodel t and fd = TE.failure_detector t in
  let sum f =
    List.fold_left (fun acc (src, dst) -> acc + f ~src ~dst) 0 (Net.Netmodel.known_pairs model)
  in
  checki "latency samples = deliveries" st.messages_delivered
    (sum (fun ~src ~dst -> (Net.Netmodel.latency model ~src ~dst ~now).samples));
  checki "loss samples = deliveries" st.messages_delivered
    (sum (fun ~src ~dst -> (Net.Netmodel.loss model ~src ~dst ~now).samples));
  checki "heartbeats = deliveries" st.messages_delivered
    (sum (fun ~src ~dst -> Net.Failure_detector.samples fd ~observer:dst ~peer:src));
  checki "kind counts = deliveries" st.messages_delivered
    (List.fold_left
       (fun acc k -> acc + TE.delivered_of_kind t k)
       0
       [ "join"; "join_reply"; "ping"; "ping_ack" ])

let test_global_view_and_objective () =
  let eng = make () in
  spawn_all eng 3;
  E.run_for eng 0.1;
  let view = E.global_view eng in
  checki "view nodes" 3 (Proto.View.node_count view);
  E.set_resolver eng (Core.Resolver.greedy ~feature:"good" ~maximize:true ());
  E.inject eng ~src:(nid 0) ~dst:(nid 0) Toy.Kick;
  E.run_for eng 0.5;
  Alcotest.check (Alcotest.float 1e-9) "objective" 1. (E.objective_score eng)

let test_run_until_quiescent () =
  let eng = make () in
  spawn_all eng 2;
  E.run_until_quiescent eng;
  (* Everything (boots, one-shot ticks) has fired; nothing remains. *)
  checki "ticked" 1 (state_exn eng 0).Toy.ticks;
  checkb "no more events" false (E.step eng)

(* NFA-style handler ambiguity: when several guarded handlers apply to
   one message, which one runs is itself a choice. *)
module Nfa = struct
  type msg = Datum

  type state = { self : Proto.Node_id.t; stored : int; forwarded : int }

  let name = "nfa"
  let equal_state (a : state) b = a = b
  let msg_kind Datum = "datum"
  let msg_bytes Datum = 32
  let msg_codec = None
  let validate = None
  let fingerprint = None
  let durable = None
  let degraded = None
  let priority = None
  let pp_msg ppf Datum = Format.fprintf ppf "datum"
  let pp_state ppf st = Format.fprintf ppf "{s=%d f=%d}" st.stored st.forwarded
  let init (ctx : Proto.Ctx.t) = ({ self = ctx.self; stored = 0; forwarded = 0 }, [])

  let receive =
    [
      Proto.Handler.v ~name:"store" (fun _ st ~src:_ Datum ->
          ({ st with stored = st.stored + 1 }, []));
      Proto.Handler.v ~name:"forward" (fun _ st ~src:_ Datum ->
          ({ st with forwarded = st.forwarded + 1 }, []));
    ]

  let on_timer _ st _ : state * msg Proto.Action.t list = (st, [])
  let properties : (state, msg) Proto.View.t Core.Property.t list = []

  let objectives : (state, msg) Proto.View.t Core.Objective.t list =
    [
      Core.Objective.v ~name:"stored" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int st.stored) 0. view);
    ]

  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module NE = Engine.Sim.Make (Nfa)

let test_nfa_handler_ambiguity () =
  let run resolver =
    let eng = NE.create ~seed:2 ~jitter:0. ~topology () in
    NE.set_resolver eng resolver;
    NE.spawn eng (nid 0);
    NE.run_for eng 0.05;
    for i = 1 to 10 do
      NE.inject eng ~after:(0.1 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Nfa.Datum
    done;
    NE.run_for eng 3.;
    let st = Option.get (NE.state_of eng (nid 0)) in
    (st.Nfa.stored, st.Nfa.forwarded, NE.decision_sites eng)
  in
  let stored, forwarded, log = run Core.Resolver.first in
  checki "first resolver always stores" 10 stored;
  checki "never forwards" 0 forwarded;
  checkb "ambiguity logged as handler choice" true
    (List.for_all
       (fun (_, site, _) -> String.equal site.Core.Choice.site_label "handler:datum")
       log);
  checki "one decision per datum" 10 (List.length log);
  let stored_r, forwarded_r, _ = run Core.Resolver.random in
  checkb "random splits between handlers" true (stored_r > 0 && forwarded_r > 0);
  (* Lookahead maximises the 'stored' objective, so it picks store. *)
  let eng = NE.create ~seed:2 ~jitter:0. ~topology () in
  NE.set_lookahead eng { NE.default_lookahead with horizon = 0.3; max_events = 20 };
  NE.spawn eng (nid 0);
  NE.run_for eng 0.05;
  for i = 1 to 10 do
    NE.inject eng ~after:(0.1 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Nfa.Datum
  done;
  NE.run_for eng 3.;
  let st = Option.get (NE.state_of eng (nid 0)) in
  checki "lookahead picks the objective-maximising handler" 10 st.Nfa.stored

let test_lookahead_scope_blinds_prediction () =
  (* With the objective evaluated on an empty view, every branch scores
     the same and the lookahead degrades to random tie-breaking; with
     global knowledge it always picks the good branch. The contrast
     proves the scope hook actually gates what prediction sees. *)
  let run scope =
    let eng = make () in
    spawn_all eng 1;
    E.run_for eng 0.1;
    E.set_lookahead eng { E.default_lookahead with horizon = 0.5; max_events = 50; scope };
    for i = 1 to 20 do
      E.inject eng ~after:(0.3 *. float_of_int i) ~src:(nid 0) ~dst:(nid 0) Toy.Kick
    done;
    E.run_for eng 10.;
    (state_exn eng 0).Toy.score
  in
  checki "global knowledge: perfect" 20 (run None);
  let blind =
    run
      (Some
         (fun _node view ->
           Proto.View.restrict view Proto.Node_id.Set.empty))
  in
  checkb "blind prediction is a coin flip" true (blind > -20 && blind < 20)

let test_message_log_and_seqdiag () =
  let eng = make () in
  spawn_all eng 3;
  E.run_for eng 0.1;
  checkb "off by default" true (E.message_log eng = []);
  E.enable_message_log eng;
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 1);
  E.inject eng ~after:0.2 ~src:(nid 2) ~dst:(nid 1) (Toy.Ping 2);
  E.run_for eng 1.;
  let log = E.message_log eng in
  (* 2 pings + 2 pongs. *)
  checki "all deliveries logged" 4 (List.length log);
  (match log with
  | (t0, src, dst, kind) :: _ ->
      checkb "oldest first" true (Dsim.Vtime.to_seconds t0 < 0.3);
      checki "first src" 0 (Proto.Node_id.to_int src);
      checki "first dst" 1 (Proto.Node_id.to_int dst);
      Alcotest.check Alcotest.string "kind" "ping" kind
  | [] -> Alcotest.fail "empty log");
  let diagram =
    Metrics.Seqdiag.render
      (List.map
         (fun (t, src, dst, kind) ->
           {
             Metrics.Seqdiag.at_ms = Dsim.Vtime.to_ms t;
             src = Proto.Node_id.to_int src;
             dst = Proto.Node_id.to_int dst;
             kind;
           })
         log)
  in
  checkb "diagram mentions the kind" true
    (let rec contains i =
       i + 4 <= String.length diagram
       && (String.sub diagram i 4 = "ping" || contains (i + 1))
     in
     contains 0);
  (* Truncation note appears when capped. *)
  let many =
    List.init 7 (fun i -> { Metrics.Seqdiag.at_ms = float_of_int i; src = 0; dst = 1; kind = "m" })
  in
  let capped = Metrics.Seqdiag.render ~max_messages:3 many in
  checkb "truncation reported" true
    (let rec contains i =
       i + 4 <= String.length capped && (String.sub capped i 4 = "more" || contains (i + 1))
     in
     contains 0);
  Alcotest.check Alcotest.string "empty diagram" "(no messages)\n" (Metrics.Seqdiag.render [])

let test_resolver_name () =
  let eng = make () in
  Alcotest.check Alcotest.string "plain" "first" (E.resolver_name eng);
  E.set_lookahead eng E.default_lookahead;
  Alcotest.check Alcotest.string "lookahead" "lookahead/random" (E.resolver_name eng)

(* ---------- the in-flight contract ----------

   [global_view] is a snapshot; the view the per-event check and
   lookahead scoring see builds its in-flight list only when read. *)

(* Handlers that stamp what their context reads: [ctx.now] on every
   call, and around the two lookahead choices a kick makes. The engine
   hands each node one context and sets its [now] on each entry, so
   these pin the contract that a call sees its own instant and its own
   engine's resolver. *)
module Stamp = struct
  type msg = Kick
  type state = { stamps : (string * float) list  (** newest first *) }

  let name = "stamp"
  let equal_state (a : state) b = a = b
  let msg_kind Kick = "kick"
  let msg_bytes Kick = 16
  let msg_codec = None
  let validate = None
  let fingerprint = None
  let durable = None
  let degraded = None
  let priority = None
  let pp_msg ppf Kick = Format.fprintf ppf "kick"
  let pp_state ppf st = Format.fprintf ppf "{%d stamps}" (List.length st.stamps)
  let stamp (ctx : Proto.Ctx.t) label st = { stamps = (label, Dsim.Vtime.to_seconds ctx.now) :: st.stamps }
  let tick = Proto.Action.set_timer ~id:"tick" ~after:1.0
  let init ctx = (stamp ctx "init" { stamps = [] }, [ tick ])
  let pick label = Core.Choice.make ~label [ Core.Choice.alt 0; Core.Choice.alt 1 ]

  let receive =
    [
      Proto.Handler.v ~name:"kick" (fun ctx st ~src:_ Kick ->
          let st = stamp ctx "before" st in
          ignore (ctx.choose (pick "first") : int);
          let st = stamp ctx "between" st in
          ignore (ctx.choose (pick "second") : int);
          (stamp ctx "after" st, []));
    ]

  let on_timer ctx st id : state * msg Proto.Action.t list = (stamp ctx id st, [ tick ])
  let properties : (state, msg) Proto.View.t Core.Property.t list = []
  let objectives : (state, msg) Proto.View.t Core.Objective.t list = []
  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module SE = Engine.Sim.Make (Stamp)

let test_ctx_now_per_call () =
  let eng = SE.create ~seed:3 ~jitter:0. ~topology () in
  SE.set_lookahead eng { SE.default_lookahead with horizon = 2.0 };
  (* node 1 runs 5 s ahead from its boot on *)
  SE.clock_step eng (nid 1) ~offset:5.;
  SE.spawn eng (nid 0);
  SE.spawn eng (nid 1);
  SE.run_for eng 2.5;
  SE.inject eng ~src:(nid 1) ~dst:(nid 0) Stamp.Kick;
  SE.run_for eng 0.1;
  let stamps id =
    match SE.state_of eng (nid id) with
    | Some st -> List.rev st.Stamp.stamps
    | None -> Alcotest.fail "node down"
  in
  let show = Alcotest.(list (pair string (float 1e-9))) in
  Alcotest.check show "skewed node reads its local clock"
    [ ("init", 5.); ("tick", 6.); ("tick", 7.) ]
    (stamps 1);
  (match stamps 0 with
  | [ ("init", 0.); ("tick", 1.); ("tick", 2.); ("before", b); ("between", m); ("after", a) ] ->
      checkb "kick delivered after the ticks" true (b > 2.5 && b < 3.);
      (* both choices forked futures that fired this node's timers up
         to 2 s later; the parent's context kept the parent's instant *)
      Alcotest.(check (float 0.)) "now after the first lookahead" b m;
      Alcotest.(check (float 0.)) "now after the second lookahead" b a
  | l ->
      Alcotest.failf "unexpected stamps: %s"
        (String.concat " " (List.map (fun (l, t) -> Printf.sprintf "%s@%g" l t) l)));
  checki "each choice forked both alternatives" 4 (SE.stats eng).lookahead_forks;
  Alcotest.(check (list string))
    "both choices resolved and logged by the parent's lookahead" [ "second"; "first" ]
    (List.map (fun (_, site, _) -> site.Core.Choice.site_label) (SE.decision_sites eng))

module Px = Apps.Paxos.Default

(* Paxos plus a safety property that reads the in-flight list at every
   per-event check and keeps what it saw. *)
module Probe = struct
  include Px

  let seen = ref []
  let checks = ref 0

  let properties =
    Core.Property.safety ~name:"inflight-probe" (fun view ->
        incr checks;
        seen := Proto.View.inflight view;
        true)
    :: Px.properties
end

module PE = Engine.Sim.Make (Probe)

let paxos_engine () =
  let n = Apps.Paxos.Default_params.population in
  let eng = PE.create ~seed:21 ~topology:(Experiments.Chaos_exp.topology ~n) () in
  PE.set_resolver eng Apps.Paxos.self_resolver;
  for i = 0 to n - 1 do
    PE.spawn eng ~after:(0.05 *. float_of_int i) (nid i)
  done;
  eng

let same_inflight a b =
  List.equal
    (fun (s, d, m) (s', d', m') -> Proto.Node_id.equal s s' && Proto.Node_id.equal d d' && m == m')
    a b

let test_snapshot_keeps_inflight () =
  let eng = paxos_engine () in
  PE.run_for eng 1.0;
  while Proto.View.inflight (PE.global_view eng) = [] && PE.step eng do
    ()
  done;
  let view = PE.global_view eng in
  let expected = Proto.View.inflight (PE.global_view eng) in
  checkb "messages in flight" true (expected <> []);
  PE.run_for eng 1.0;
  checkb "engine moved on" false
    (same_inflight expected (Proto.View.inflight (PE.global_view eng)));
  checkb "first read after run_for is the snapshot" true
    (same_inflight expected (Proto.View.inflight view))

let test_deferred_inflight_matches_eager () =
  let eng = paxos_engine () in
  Probe.checks := 0;
  let steps = ref 0 and busy = ref 0 in
  while !steps < 3000 && PE.step eng do
    incr steps;
    if !Probe.seen <> [] then incr busy;
    if not (same_inflight !Probe.seen (Proto.View.inflight (PE.global_view eng))) then
      Alcotest.failf "event %d: the deferred list differs from the eager one" !steps
  done;
  checki "all events stepped" 3000 !steps;
  checkb "most events leave messages in flight" true (!busy > 1500);
  checki "one check per event" 3000 !Probe.checks;
  checki "no violations" 0 (List.length (PE.violations eng))

(* Seeded violation lists and event counts: the buggy lease service
   without steering, and RandTree joining under lookahead (forked
   futures scored on deferred views). *)
let render_violations vs =
  String.concat "\n" (List.map (fun (at, name) -> Format.asprintf "%a %s" Dsim.Vtime.pp at name) vs)

let test_seeded_runs_pinned () =
  let module S = Experiments.Steering_exp in
  let eng = S.E.create ~seed:5 ~jitter:0. ~topology:S.topology () in
  S.E.set_resolver eng Core.Resolver.random;
  for i = 0 to S.population - 1 do
    S.E.spawn eng (nid i)
  done;
  S.E.run_for eng 60.;
  let vs = S.E.violations eng in
  checki "lease violations" 22 (List.length vs);
  Alcotest.check Alcotest.string "lease violation digest" "a2e8e4d96b41e952648ba2be3146f475"
    (Digest.to_hex (Digest.string (render_violations vs)));
  checki "lease events" 321 (S.E.stats eng).events_processed;
  let module Tree = Apps.Randtree_choice.Default in
  let module TE = Engine.Sim.Make (Tree) in
  let topology =
    Net.Topology.uniform ~n:15 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let t = TE.create ~seed:8 ~jitter:0. ~topology () in
  TE.set_lookahead t { TE.default_lookahead with horizon = 3.0; max_events = 600 };
  for i = 0 to 14 do
    TE.spawn t ~after:(0.3 *. float_of_int i) (nid i)
  done;
  TE.run_for t 15.;
  TE.kill t (nid 1);
  TE.run_for t 10.;
  let st = TE.stats t in
  checki "tree events" 1164 st.events_processed;
  checki "tree forks" 48 st.lookahead_forks;
  checki "tree decisions" 24 st.decisions;
  checki "tree violations" 0 (List.length (TE.violations t));
  checki "tree depth" 6
    (Apps.Randtree_common.Measure.max_depth ~parent:Tree.parent_of (TE.global_view t))

let () =
  Alcotest.run "engine"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "boot and timer" `Quick test_boot_and_timer;
          Alcotest.test_case "kill/restart" `Quick test_kill_and_restart;
          Alcotest.test_case "restart invalidates timers" `Quick test_restart_invalidates_old_timers;
          Alcotest.test_case "spawn errors" `Quick test_spawn_errors;
          Alcotest.test_case "injection edges" `Quick test_injection_and_schedule_edges;
          Alcotest.test_case "spawn on corpse" `Quick test_spawn_on_killed_node_rejected;
        ] );
      ( "messaging",
        [
          Alcotest.test_case "roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "filters" `Quick test_filters;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "choices",
        [
          Alcotest.test_case "resolver + decision log" `Quick test_resolver_choice_and_log;
          Alcotest.test_case "violations" `Quick test_violation_detection;
          Alcotest.test_case "lookahead avoids bad branch" `Quick test_lookahead_avoids_bad_branch;
          Alcotest.test_case "bandit learns online" `Slow test_bandit_learns_online;
          Alcotest.test_case "hybrid cache" `Quick test_hybrid_cache;
          Alcotest.test_case "playbook offline" `Quick test_playbook_offline_training;
          Alcotest.test_case "nfa handler ambiguity" `Quick test_nfa_handler_ambiguity;
          Alcotest.test_case "lookahead scope" `Quick test_lookahead_scope_blinds_prediction;
          Alcotest.test_case "message log + seqdiag" `Quick test_message_log_and_seqdiag;
          Alcotest.test_case "resolver name" `Quick test_resolver_name;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "fork independence" `Quick test_fork_independence;
          Alcotest.test_case "fork isolates model and detector" `Quick
            test_fork_isolates_network_state;
          Alcotest.test_case "lookahead leaves models alone" `Quick
            test_lookahead_branches_leave_models_alone;
          Alcotest.test_case "view + objective" `Quick test_global_view_and_objective;
          Alcotest.test_case "quiescence" `Quick test_run_until_quiescent;
          Alcotest.test_case "ctx now per call" `Quick test_ctx_now_per_call;
        ] );
      ( "inflight",
        [
          Alcotest.test_case "snapshot survives run_for" `Quick test_snapshot_keeps_inflight;
          Alcotest.test_case "deferred = eager per event" `Quick
            test_deferred_inflight_matches_eager;
          Alcotest.test_case "seeded runs pinned" `Quick test_seeded_runs_pinned;
        ] );
    ]
