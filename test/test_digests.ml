(* Golden event digests: one row per (app, seed, fault profile), each
   the MD5 of everything a seeded run makes observable — the message
   log, every [stats] field, the violations and the decision sites.
   Rows with an Obs sink also pin the metrics and spans JSONL in a
   separate column. The table lives in test/golden/engine_digests.txt
   (see test/golden/README.md); a refactor of the engine must leave it
   unchanged. *)

let nid = Proto.Node_id.of_int
let md5 lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

module Row (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)
  module X = Engine.Faultplan.Run (E)

  let create ?(jitter = 0.05) ~seed topology =
    let eng = E.create ~seed ~jitter ~topology () in
    E.enable_message_log eng;
    eng

  let spawn_all eng ~seed n =
    let rng = Dsim.Rng.create (seed + 11) in
    for i = 0 to n - 1 do
      E.spawn eng ~after:(Dsim.Rng.float rng 0.3) (nid i)
    done

  let secs t = Printf.sprintf "%h" (Dsim.Vtime.to_seconds t)
  let node = Proto.Node_id.to_int

  (* [core] digests the engine; [obs] the sink's deterministic export. *)
  let digest ?sink eng =
    let log =
      List.map
        (fun (t, s, d, k) -> Printf.sprintf "%s %d->%d %s" (secs t) (node s) (node d) k)
        (E.message_log eng)
    in
    let s = E.stats eng in
    let stats = List.map (fun (k, read) -> Printf.sprintf "%s=%d" k (read s)) Engine.Counters.fields in
    let violations = List.map (fun (t, p) -> secs t ^ " " ^ p) (E.violations eng) in
    let sites =
      List.map
        (fun (t, (s : Core.Choice.site), i) ->
          Printf.sprintf "%s %s n%d o%d a%d -> %d" (secs t) s.site_label s.site_node
            s.site_occurrence s.site_arity i)
        (E.decision_sites eng)
    in
    let core =
      md5 (List.concat [ log; [ "--" ]; stats; [ "--" ]; violations; [ "--" ]; sites ])
    in
    let obs =
      match sink with
      | None -> "-"
      | Some (s : Obs.Sink.t) ->
          md5 (Obs.Registry.to_json_lines s.registry @ ("--" :: Obs.Span.to_json_lines s.spans))
    in
    (core, obs)

  let attach eng =
    let sink = Obs.Sink.create () in
    E.set_obs eng (Some sink);
    sink

  (* A plan-driven run shaped like [Engine.Chaos.Soak.run]: warmup,
     the plan, the rest of the storm, then the grace period. *)
  let storm eng ~seed ~nodes (profile : Engine.Chaos.profile) =
    E.run_for eng 2.0;
    let plan = Engine.Chaos.generate ~seed ~nodes profile in
    let start = E.now eng in
    X.execute eng plan;
    let spent = Dsim.Vtime.diff (E.now eng) start in
    if spent < profile.storm then E.run_for eng (profile.storm -. spent);
    E.run_for eng profile.grace
end

module Paxos_params = struct
  let population = 5
  let client_period = 0.25
  let retry_timeout = Apps.Paxos.Default_params.retry_timeout
end

module Px = Row (Apps.Paxos.Make (Paxos_params))
module Kv = Row (Apps.Kvstore.Default)
module Tree = Row (Apps.Randtree_choice.Default)

let topology n = Experiments.Chaos_exp.topology ~n

let paxos ~seed ?(setup = fun _ -> ()) ?(obs = false) ?plan duration =
  let eng = Px.create ~seed (topology 5) in
  Px.E.set_resolver eng Apps.Paxos.self_resolver;
  setup eng;
  let sink = if obs then Some (Px.attach eng) else None in
  Px.spawn_all eng ~seed 5;
  (match plan with
  | Some events ->
      Px.E.run_for eng 1.0;
      Px.X.execute eng (Engine.Faultplan.plan events)
  | None -> ());
  Px.E.run_until eng (Dsim.Vtime.of_seconds duration);
  Px.digest ?sink eng

let kvstore ~seed ?(reliable = false) ?(obs = false) profile =
  let eng = Kv.create ~seed (topology 5) in
  Kv.E.set_resolver eng Apps.Kvstore.session_resolver;
  if reliable then Kv.E.enable_reliable eng;
  let sink = if obs then Some (Kv.attach eng) else None in
  Kv.spawn_all eng ~seed 5;
  Kv.storm eng ~seed ~nodes:5 profile;
  Kv.digest ?sink eng

let rows : (string * (unit -> string * string)) list =
  [
    ("paxos-steady seed=7", fun () -> paxos ~seed:7 10.);
    ( "kvstore flap-storm+reliable+obs seed=1000",
      fun () ->
        kvstore ~seed:1000 ~reliable:true ~obs:true
          Experiments.Chaos_exp.(with_flaps 1 kvstore_profile) );
    ( "paxos by-priority mailbox+burst seed=11",
      fun () ->
        paxos ~seed:11 ~obs:true
          ~setup:(fun eng ->
            Px.E.set_overload eng ~config:{ mailbox_capacity = 16; service_time = 5e-4 })
          ~plan:
            [
              (1.0, Engine.Faultplan.Overload { node = 0; rate = 2000. });
              (2.0, Engine.Faultplan.Heal_overload { node = 0 });
            ]
          5. );
    ( "paxos reliable+breaker partition seed=14",
      fun () ->
        paxos ~seed:14
          ~setup:(fun eng ->
            Px.E.enable_reliable eng;
            Px.E.enable_breaker eng)
          ~plan:
            [
              (1.0, Engine.Faultplan.Partition ([ 0; 1 ], [ 2; 3; 4 ]));
              (31.0, Engine.Faultplan.Heal_partition ([ 0; 1 ], [ 2; 3; 4 ]));
            ]
          40. );
    ( "paxos drift+step+heal seed=15",
      fun () ->
        paxos ~seed:15 ~obs:true
          ~plan:
            [
              (0.5, Engine.Faultplan.Set_clock_rate { node = 1; rate = 1.3 });
              (1.0, Engine.Faultplan.Clock_step { node = 2; offset = 2.0 });
              (1.5, Engine.Faultplan.Clock_step { node = 3; offset = -1.0 });
              (4.0, Engine.Faultplan.Heal_clock { node = 1 });
              (4.0, Engine.Faultplan.Heal_clock { node = 2 });
              (4.5, Engine.Faultplan.Heal_clock { node = 3 });
            ]
          8. );
    ( "kvstore byz=-1 seed=42",
      fun () ->
        kvstore ~seed:42 ~obs:true Experiments.Chaos_exp.(with_byz (-1) kvstore_profile) );
    ( "randtree lookahead+reliable+bounded seed=16",
      fun () ->
        let eng = Tree.create ~seed:16 (Experiments.Randtree_exp.topology ~seed:16 ~nodes:16) in
        Tree.E.set_lookahead eng
          { Tree.E.default_lookahead with horizon = 1.0; max_events = 200 };
        Tree.E.enable_reliable eng;
        Tree.E.set_overload eng ~config:{ mailbox_capacity = 3; service_time = 5e-3 };
        for i = 0 to 15 do
          Tree.E.spawn eng ~after:(0.1 *. float_of_int i) (nid i)
        done;
        Tree.E.overload eng ~rate:500. (nid 0);
        Tree.E.run_for eng 2.;
        Tree.E.heal_overload eng (nid 0);
        Tree.E.run_for eng 8.;
        Tree.digest eng );
  ]

let golden = "golden/engine_digests.txt"

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let test_table () =
  let actual =
    List.map
      (fun (name, run) ->
        let core, obs = run () in
        Printf.sprintf "%s | %s | %s" name core obs)
      rows
  in
  let expected = read_lines golden in
  if actual <> expected then begin
    print_endline "actual engine digest table:";
    List.iter print_endline actual;
    Alcotest.failf "engine digests differ from %s (actual table printed above)" golden
  end

let () =
  Alcotest.run "digests" [ ("engine", [ Alcotest.test_case "golden table" `Quick test_table ]) ]
