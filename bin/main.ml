(* Command-line driver: one subcommand per experiment family, so every
   result in EXPERIMENTS.md can be regenerated (and varied) from the
   shell. *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")

(* ---------- randtree ---------- *)

let randtree_setup =
  let parse = function
    | "baseline" -> Ok Experiments.Randtree_exp.Baseline
    | "random" -> Ok Experiments.Randtree_exp.Choice_random
    | "crystalball" -> Ok Experiments.Randtree_exp.Choice_crystalball
    | "greedy" -> Ok Experiments.Randtree_exp.Choice_greedy
    | "bandit" -> Ok Experiments.Randtree_exp.Choice_bandit
    | s -> Error (`Msg ("unknown setup: " ^ s))
  in
  let print ppf s = Format.fprintf ppf "%s" (Experiments.Randtree_exp.setup_name s) in
  Arg.conv (parse, print)

let randtree_cmd =
  let run seed nodes setups with_failure =
    let setups =
      match setups with [] -> Experiments.Randtree_exp.paper_setups | s -> s
    in
    let rows =
      List.map
        (fun setup ->
          let o = Experiments.Randtree_exp.run ~nodes ~seed ~with_failure setup in
          [
            Experiments.Randtree_exp.setup_name setup;
            Metrics.Report.fint o.Experiments.Randtree_exp.depth_after_join;
            Metrics.Report.fopt_int o.Experiments.Randtree_exp.depth_after_rejoin;
            Metrics.Report.fint o.Experiments.Randtree_exp.joined;
            Metrics.Report.fint o.Experiments.Randtree_exp.messages;
          ])
        setups
    in
    Metrics.Report.print
      ~title:(Printf.sprintf "RandTree: %d nodes, seed %d" nodes seed)
      ~header:[ "setup"; "join depth"; "rejoin depth"; "joined"; "msgs" ]
      rows
  in
  let nodes =
    Arg.(value & opt int 31 & info [ "nodes" ] ~docv:"N" ~doc:"Number of participants.")
  in
  let setups =
    Arg.(
      value
      & opt_all randtree_setup []
      & info [ "setup" ] ~docv:"SETUP"
          ~doc:"Setup to run (baseline|random|crystalball|greedy|bandit); repeatable.")
  in
  let with_failure =
    Arg.(value & flag & info [ "with-failure" ] ~doc:"Also fail and rejoin a subtree (E3).")
  in
  Cmd.v
    (Cmd.info "randtree" ~doc:"The paper's case study: overlay-tree join/rejoin depth (E2/E3).")
    Term.(const run $ seed_arg $ nodes $ setups $ with_failure)

(* ---------- gossip ---------- *)

let gossip_cmd =
  let run seed waves slow =
    let scenario =
      if slow then Experiments.Gossip_exp.Slow_stub else Experiments.Gossip_exp.Uniform
    in
    let rows =
      List.map
        (fun policy ->
          let o = Experiments.Gossip_exp.run ~seed ~waves ~scenario policy in
          [
            Experiments.Gossip_exp.policy_name policy;
            Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
            Metrics.Report.ffloat o.Experiments.Gossip_exp.max_coverage_s;
            Metrics.Report.fint o.Experiments.Gossip_exp.messages;
          ])
        Experiments.Gossip_exp.all_policies
    in
    Metrics.Report.print
      ~title:
        (Printf.sprintf "Gossip coverage, scenario %s, %d waves"
           (Experiments.Gossip_exp.scenario_name scenario)
           waves)
      ~header:[ "policy"; "mean (s)"; "max (s)"; "msgs" ]
      rows
  in
  let waves = Arg.(value & opt int 5 & info [ "waves" ] ~docv:"W" ~doc:"Rumor waves.") in
  let slow = Arg.(value & flag & info [ "slow-stub" ] ~doc:"Put one stub behind a slow link.") in
  Cmd.v
    (Cmd.info "gossip" ~doc:"Gossip peer-selection policies (E4).")
    Term.(const run $ seed_arg $ waves $ slow)

(* ---------- dissem ---------- *)

let dissem_scenario =
  let parse = function
    | "fast" -> Ok Experiments.Dissem_exp.Fast_seed
    | "slow" -> Ok Experiments.Dissem_exp.Slow_seed
    | "choked" -> Ok Experiments.Dissem_exp.Choked_seed
    | s -> Error (`Msg ("unknown scenario: " ^ s))
  in
  let print ppf s = Format.fprintf ppf "%s" (Experiments.Dissem_exp.scenario_name s) in
  Arg.conv (parse, print)

let dissem_cmd =
  let run seed scenario =
    let rows =
      List.map
        (fun policy ->
          let o = Experiments.Dissem_exp.run ~seed ~scenario policy in
          [
            Experiments.Dissem_exp.policy_name policy;
            Printf.sprintf "%d/15" o.Experiments.Dissem_exp.completed;
            Metrics.Report.ffloat o.Experiments.Dissem_exp.mean_completion_s;
            Metrics.Report.ffloat o.Experiments.Dissem_exp.max_completion_s;
            Metrics.Report.fint o.Experiments.Dissem_exp.duplicate_pieces;
          ])
        Experiments.Dissem_exp.all_policies
    in
    Metrics.Report.print
      ~title:
        (Printf.sprintf "Content distribution, scenario %s"
           (Experiments.Dissem_exp.scenario_name scenario))
      ~header:[ "policy"; "done"; "mean (s)"; "max (s)"; "dup pieces" ]
      rows
  in
  let scenario =
    Arg.(
      value
      & opt dissem_scenario Experiments.Dissem_exp.Choked_seed
      & info [ "scenario" ] ~docv:"S" ~doc:"Seed bandwidth: fast|slow|choked.")
  in
  Cmd.v
    (Cmd.info "dissem" ~doc:"Content-distribution block-selection policies (E5).")
    Term.(const run $ seed_arg $ scenario)

(* ---------- paxos ---------- *)

let paxos_cmd =
  let run seed duration loaded =
    let scenario =
      if loaded then Experiments.Paxos_exp.Loaded_leader else Experiments.Paxos_exp.Balanced_wan
    in
    let rows =
      List.map
        (fun policy ->
          let o = Experiments.Paxos_exp.run ~seed ~duration ~scenario policy in
          [
            Experiments.Paxos_exp.policy_name policy;
            Printf.sprintf "%d/%d" o.Experiments.Paxos_exp.committed o.Experiments.Paxos_exp.born;
            Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.mean_latency_ms;
            Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.p99_latency_ms;
            Metrics.Report.fint o.Experiments.Paxos_exp.agreement_violations;
          ])
        Experiments.Paxos_exp.all_policies
    in
    Metrics.Report.print
      ~title:
        (Printf.sprintf "Paxos, scenario %s, %.0fs"
           (Experiments.Paxos_exp.scenario_name scenario)
           duration)
      ~header:[ "policy"; "committed"; "mean (ms)"; "p99 (ms)"; "agreement viol." ]
      rows
  in
  let duration =
    Arg.(value & opt float 60. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run time.")
  in
  let loaded =
    Arg.(value & flag & info [ "loaded-leader" ] ~doc:"Congest the fixed leader's access link.")
  in
  Cmd.v
    (Cmd.info "paxos" ~doc:"Consensus proposer-assignment policies (E6).")
    Term.(const run $ seed_arg $ duration $ loaded)

(* ---------- dht ---------- *)

let dht_cmd =
  let run seed duration =
    let rows =
      List.map
        (fun policy ->
          let o = Experiments.Dht_exp.run ~seed ~duration policy in
          [
            Experiments.Dht_exp.policy_name policy;
            Printf.sprintf "%d/%d" o.Experiments.Dht_exp.completed o.Experiments.Dht_exp.issued;
            Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.mean_latency_ms;
            Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.p99_latency_ms;
            Metrics.Report.ffloat o.Experiments.Dht_exp.mean_hops;
          ])
        Experiments.Dht_exp.all_policies
    in
    Metrics.Report.print
      ~title:(Printf.sprintf "DHT routing, %.0fs of random lookups" duration)
      ~header:[ "policy"; "completed"; "mean (ms)"; "p99 (ms)"; "mean hops" ]
      rows
  in
  let duration =
    Arg.(value & opt float 40. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run time.")
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Chord-style DHT next-hop routing policies (E7).")
    Term.(const run $ seed_arg $ duration)

(* ---------- kvstore ---------- *)

let kvstore_cmd =
  let run seed duration =
    let rows =
      List.map
        (fun policy ->
          let o = Experiments.Kvstore_exp.run ~seed ~duration policy in
          [
            Experiments.Kvstore_exp.policy_name policy;
            Metrics.Report.fint o.Experiments.Kvstore_exp.reads;
            Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.mean_read_ms;
            Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.p99_read_ms;
            Metrics.Report.ffloat o.Experiments.Kvstore_exp.mean_staleness;
            Metrics.Report.fint o.Experiments.Kvstore_exp.monotonic_violations;
          ])
        Experiments.Kvstore_exp.all_policies
    in
    Metrics.Report.print
      ~title:(Printf.sprintf "Replicated KV store, %.0fs of session traffic" duration)
      ~header:[ "policy"; "reads"; "mean (ms)"; "p99 (ms)"; "staleness"; "mono viol." ]
      rows
  in
  let duration =
    Arg.(value & opt float 60. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run time.")
  in
  Cmd.v
    (Cmd.info "kvstore" ~doc:"Replicated KV store read-replica policies (E8).")
    Term.(const run $ seed_arg $ duration)

(* ---------- steering ---------- *)

let steering_cmd =
  let run seed duration delay =
    let base = Experiments.Steering_exp.run ~seed ~duration ~with_runtime:false () in
    let steered =
      Experiments.Steering_exp.run ~seed ~duration ~checkpoint_delay:delay ~with_runtime:true ()
    in
    Metrics.Report.print
      ~title:(Printf.sprintf "Lease race over %.0fs, checkpoint staleness %.2fs" duration delay)
      ~header:[ "setup"; "violations"; "grants"; "filtered"; "vetoes"; "worlds"; "cached"; "fp coll." ]
      [
        [
          "no runtime";
          Metrics.Report.fint base.Experiments.Steering_exp.violations;
          Metrics.Report.fint base.Experiments.Steering_exp.grants;
          "0";
          "0";
          "0";
          "0";
          "0";
        ];
        [
          "CrystalBall runtime";
          Metrics.Report.fint steered.Experiments.Steering_exp.violations;
          Metrics.Report.fint steered.Experiments.Steering_exp.grants;
          Metrics.Report.fint steered.Experiments.Steering_exp.filtered;
          Metrics.Report.fint steered.Experiments.Steering_exp.vetoes;
          Metrics.Report.fint steered.Experiments.Steering_exp.worlds_explored;
          Metrics.Report.fint steered.Experiments.Steering_exp.outcomes_cached;
          Metrics.Report.fint steered.Experiments.Steering_exp.fingerprint_collisions;
        ];
      ]
  in
  let duration =
    Arg.(value & opt float 120. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run time.")
  in
  let delay =
    Arg.(
      value & opt float 0.05
      & info [ "staleness" ] ~docv:"SECONDS" ~doc:"Checkpoint collection delay.")
  in
  Cmd.v
    (Cmd.info "steering" ~doc:"Execution steering on the buggy lease service (S1).")
    Term.(const run $ seed_arg $ duration $ delay)

(* ---------- metrics ---------- *)

let metrics_cmd =
  let run () =
    match Experiments.Metrics_exp.run () with
    | None -> prerr_endline "sources not found; run from the repository"
    | Some c ->
        Metrics.Report.print ~title:"Code metrics (E1)"
          ~header:[ "variant"; "LoC"; "handlers"; "if-else/handler" ]
          [
            [
              "baseline";
              Metrics.Report.fint c.baseline.Metrics.Code_metrics.loc;
              Metrics.Report.fint c.baseline.Metrics.Code_metrics.handlers;
              Metrics.Report.ffloat c.baseline.Metrics.Code_metrics.per_handler;
            ];
            [
              "choice-exposed";
              Metrics.Report.fint c.choice.Metrics.Code_metrics.loc;
              Metrics.Report.fint c.choice.Metrics.Code_metrics.handlers;
              Metrics.Report.ffloat c.choice.Metrics.Code_metrics.per_handler;
            ];
          ];
        Printf.printf "LoC reduction: %.0f%%\n" c.loc_reduction_percent
  in
  Cmd.v (Cmd.info "metrics" ~doc:"Code metrics of the two RandTree variants (E1).")
    Term.(const run $ const ())

(* ---------- overhead ---------- *)

let overhead_cmd =
  let run seed periods =
    let periods = if periods = [] then [ 5.0; 1.0; 0.2 ] else periods in
    let base = Experiments.Overhead_exp.run ~seed ~checkpoint_period:None () in
    let rows =
      [
        "no runtime";
        Metrics.Report.ffloat ~decimals:1 base.Experiments.Overhead_exp.mean_completion_s;
        "0";
        "0";
      ]
      :: List.map
           (fun period ->
             let o = Experiments.Overhead_exp.run ~seed ~checkpoint_period:(Some period) () in
             [
               Printf.sprintf "period %.2fs" period;
               Metrics.Report.ffloat ~decimals:1 o.Experiments.Overhead_exp.mean_completion_s;
               Metrics.Report.fint o.Experiments.Overhead_exp.checkpoints;
               Printf.sprintf "%d KB" (o.Experiments.Overhead_exp.checkpoint_bytes / 1024);
             ])
           periods
    in
    Metrics.Report.print ~title:"Checkpoint traffic vs swarm completion (A4)"
      ~header:[ "collection"; "mean done (s)"; "checkpoints"; "bytes" ]
      rows
  in
  let periods =
    Arg.(
      value & opt_all float []
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Checkpoint period to test; repeatable.")
  in
  Cmd.v
    (Cmd.info "overhead" ~doc:"Checkpoint communication overhead vs freshness (A4).")
    Term.(const run $ seed_arg $ periods)

(* ---------- explore ---------- *)

let explore_cmd =
  let run seed depth drops generic =
    let module App = Apps.Lease.Default in
    let module E = Engine.Sim.Make (App) in
    let module Ex = Mc.Explorer.Make (App) in
    let module St = Mc.Steering.Make (App) in
    (* Drive the buggy lease service until a lease is in flight while
       someone already holds one — the paper's "imminent inconsistency"
       snapshot — then run consequence prediction on it. *)
    let eng = E.create ~seed ~jitter:0. ~topology:Experiments.Steering_exp.topology () in
    E.set_resolver eng Core.Resolver.random;
    for i = 0 to 3 do
      E.spawn eng (Proto.Node_id.of_int i)
    done;
    let interesting view =
      List.exists
        (fun (_, _, m) -> String.equal (App.msg_kind m) "lease")
        (Proto.View.inflight view)
      && Proto.View.fold (fun n _ st -> if App.holding st then n + 1 else n) 0 view >= 1
    in
    let rec seek budget =
      if budget = 0 then None
      else begin
        E.run_for eng 0.05;
        let view = E.global_view eng in
        if interesting view then Some view else seek (budget - 1)
      end
    in
    match seek 4000 with
    | None -> prerr_endline "no interesting snapshot reached; try another seed"
    | Some view ->
        Printf.printf "snapshot at %s: %d nodes, %d messages in flight\n"
          (Format.asprintf "%a" Dsim.Vtime.pp view.Proto.View.time)
          (Proto.View.node_count view)
          (Proto.View.inflight_count view);
        let world = Ex.world_of_view view in
        let result =
          Ex.explore ~include_drops:drops ~generic_node:generic ~depth world
        in
        Printf.printf "explored %d worlds (%d deduped, %d cached outcomes, %d fp collisions%s)\n"
          result.Ex.worlds_explored result.Ex.worlds_deduped result.Ex.outcomes_cached
          result.Ex.fingerprint_collisions
          (if result.Ex.truncated then ", truncated" else "");
        (match result.Ex.violations with
        | [] -> print_endline "no violation reachable within the horizon"
        | vs ->
            Printf.printf "%d violating path(s); first:\n" (List.length vs);
            let v = List.hd vs in
            Printf.printf "  property %s after:\n" v.Ex.property;
            List.iter
              (fun s -> Printf.printf "    %s\n" (Format.asprintf "%a" Ex.pp_step s))
              v.Ex.path);
        let verdict, stats =
          St.decide_with_stats ~include_drops:drops ~generic_node:generic ~depth world
        in
        (match verdict with
        | St.No_violation -> print_endline "steering: nothing to do"
        | St.Steer vetoes ->
            print_endline "steering: safe to veto —";
            List.iter
              (fun veto -> Printf.printf "  %s\n" (Format.asprintf "%a" St.pp_veto veto))
              vetoes
        | St.Cannot_steer props ->
            Printf.printf "steering: cannot steer away from %s\n" (String.concat ", " props));
        Printf.printf "steering explored %d worlds (%d cached outcomes, %d fp collisions)\n"
          stats.St.worlds_explored stats.St.outcomes_cached stats.St.fingerprint_collisions
  in
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc:"Exploration depth.")
  in
  let drops = Arg.(value & flag & info [ "drops" ] ~doc:"Also branch on message loss.") in
  let generic =
    Arg.(value & flag & info [ "generic-node" ] ~doc:"Inject the generic-node alphabet.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Consequence prediction on a live snapshot of the buggy lease service.")
    Term.(const run $ seed_arg $ depth $ drops $ generic)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let run seed rounds factor flaps overload drift byz apps show_plans =
    if factor <= 0. then begin
      Printf.eprintf "intensity must be positive (got %g)\n" factor;
      exit 2
    end;
    if rounds <= 0 then begin
      Printf.eprintf "rounds must be positive (got %d)\n" rounds;
      exit 2
    end;
    if flaps < 0 then begin
      Printf.eprintf "flaps must be non-negative (got %d)\n" flaps;
      exit 2
    end;
    if overload < 0 then begin
      Printf.eprintf "overload must be non-negative (got %d)\n" overload;
      exit 2
    end;
    if drift < 0 then begin
      Printf.eprintf "drift must be non-negative (got %d)\n" drift;
      exit 2
    end;
    if byz < -1 then begin
      Printf.eprintf "byz must be -1 (global), 0 (off) or a link count (got %d)\n" byz;
      exit 2
    end;
    let apps =
      match apps with
      | [] -> Experiments.Chaos_exp.apps
      | picked ->
          List.iter
            (fun a ->
              if not (List.mem a Experiments.Chaos_exp.apps) then begin
                Printf.eprintf "unknown app %s (have: %s)\n" a
                  (String.concat ", " Experiments.Chaos_exp.apps);
                exit 2
              end)
            picked;
          picked
    in
    let reports =
      List.concat_map
        (fun app ->
          List.map
            (fun i ->
              Experiments.Chaos_exp.run ~factor ~flaps ~overload ~drift ~byz ~seed:(seed + i) app)
            (List.init rounds Fun.id))
        apps
    in
    let rows =
      List.map
        (fun (r : Experiments.Chaos_exp.report) ->
          [
            r.Experiments.Chaos_exp.app;
            Metrics.Report.fint r.Experiments.Chaos_exp.seed;
            (if r.Experiments.Chaos_exp.violations = 0 then "yes"
             else Printf.sprintf "NO (%d)" r.Experiments.Chaos_exp.violations);
            (if r.Experiments.Chaos_exp.recovered then "yes" else "NO");
            (if r.Experiments.Chaos_exp.self_healed then "yes" else "NO");
            Metrics.Report.fint r.Experiments.Chaos_exp.plan_events;
            Metrics.Report.fint r.Experiments.Chaos_exp.delivered;
            Metrics.Report.fint r.Experiments.Chaos_exp.dropped;
            Metrics.Report.fint r.Experiments.Chaos_exp.duplicated;
            Metrics.Report.fint r.Experiments.Chaos_exp.corrupted;
            Metrics.Report.fint r.Experiments.Chaos_exp.decode_failures;
            Printf.sprintf "%d(-%d/+%d)" r.Experiments.Chaos_exp.byz_emitted
              r.Experiments.Chaos_exp.byz_rejected r.Experiments.Chaos_exp.byz_accepted;
            Metrics.Report.fint r.Experiments.Chaos_exp.sheds;
            (if r.Experiments.Chaos_exp.shed_bounded then
               Metrics.Report.fint r.Experiments.Chaos_exp.max_depth
             else Printf.sprintf "OVER (%d)" r.Experiments.Chaos_exp.max_depth);
            (if r.Experiments.Chaos_exp.overload_recovered then "yes" else "NO");
          ])
        reports
    in
    Metrics.Report.print
      ~title:
        (Printf.sprintf "Chaos soak: %d storms/app, base seed %d, intensity x%.1f" rounds seed
           factor)
      ~header:
        [
          "app";
          "seed";
          "safe";
          "recovered";
          "healed";
          "events";
          "dlv";
          "drop";
          "dup";
          "corrupt";
          "badwire";
          "byz";
          "shed";
          "depth";
          "drained";
        ]
      rows;
    if show_plans then
      List.iter
        (fun (r : Experiments.Chaos_exp.report) ->
          Printf.printf "\n%s seed %d plan:\n  %s\n" r.Experiments.Chaos_exp.app
            r.Experiments.Chaos_exp.seed r.Experiments.Chaos_exp.plan_text)
        reports;
    let bad = List.filter Experiments.Chaos_exp.failed reports in
    if bad <> [] then begin
      Printf.printf "\n%d of %d soaks failed\n" (List.length bad) (List.length reports);
      exit 1
    end
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Storms per application.")
  in
  let factor =
    Arg.(
      value
      & opt float 2.
      & info [ "intensity" ] ~docv:"X"
          ~doc:"Scale factor on storm length and fault counts (tests use 1).")
  in
  let flaps =
    Arg.(
      value
      & opt int 0
      & info [ "flaps" ] ~docv:"N"
          ~doc:
            "Add a flapping partition with N cut/heal cycles to every storm (stretches the \
             storm so the failure detector can see each cycle).")
  in
  let overload =
    Arg.(
      value
      & opt int 0
      & info [ "overload" ] ~docv:"N"
          ~doc:
            "Add N targeted injection bursts to every storm; the soak bounds mailboxes, sheds \
             by priority and turns on the circuit breaker, then asserts the queues never \
             overran and drained by the end of grace.")
  in
  let drift =
    Arg.(
      value
      & opt int 0
      & info [ "drift" ] ~docv:"N"
          ~doc:
            "Skew N nodes' local clocks per storm (rate drift plus one NTP-style step \
             excursion); all clocks heal before the storm ends.")
  in
  let byz =
    Arg.(
      value
      & opt int 0
      & info [ "byz" ] ~docv:"N"
          ~doc:
            "Byzantine message mutation: N directed links carry typed, decodes-clean payload \
             mutations for a window each (-1 mutates the global channel for the whole storm; \
             0 disables and leaves seeded plans byte-identical).")
  in
  let apps =
    Arg.(
      value
      & opt_all string []
      & info [ "app" ] ~docv:"APP"
          ~doc:"Application to soak (paxos|kvstore|gossip|dht|randtree); repeatable.")
  in
  let show_plans =
    Arg.(value & flag & info [ "plans" ] ~doc:"Print each generated fault plan (the replay witness).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized adversarial soak: seeded storms of crashes, partitions, duplication, \
          corruption and reordering over every application, asserting safety and recovery.")
    Term.(
      const run $ seed_arg $ rounds $ factor $ flaps $ overload $ drift $ byz $ apps $ show_plans)

(* ---------- obs ---------- *)

let obs_cmd =
  let run seed duration app metrics_out spans_out include_volatile no_check =
    let sink = Obs.Sink.create () in
    (match app with
    | "paxos" ->
        ignore
          (Experiments.Paxos_exp.run ~seed ~duration ~obs:sink
             ~scenario:Experiments.Paxos_exp.Balanced_wan Experiments.Paxos_exp.Local)
    | "kvstore" ->
        ignore
          (Experiments.Kvstore_exp.run ~seed ~duration ~obs:sink
             Experiments.Kvstore_exp.Nearest)
    | "gossip" ->
        let waves = Stdlib.max 1 (int_of_float (duration /. 10.)) in
        ignore
          (Experiments.Gossip_exp.run ~seed ~waves ~obs:sink
             ~scenario:Experiments.Gossip_exp.Uniform Experiments.Gossip_exp.Random_peer)
    | "steering" ->
        ignore
          (Experiments.Steering_exp.run ~seed ~duration ~obs:sink ~with_runtime:true ())
    | other ->
        Format.printf "unknown app %S (expected paxos|kvstore|gossip|steering)@." other;
        exit 2);
    let metrics_lines =
      Obs.Sink.write_metrics ~include_volatile sink ~path:metrics_out
    in
    let span_lines = Obs.Sink.write_spans sink ~path:spans_out in
    Format.printf "%s: %d metrics -> %s, %d spans -> %s (%d recorded, %d evicted)@." app
      metrics_lines metrics_out span_lines spans_out
      (Obs.Span.recorded sink.Obs.Sink.spans)
      (Obs.Span.dropped sink.Obs.Sink.spans);
    if not no_check then begin
      let check label path =
        match Obs.Sink.validate_file path with
        | Ok n -> Format.printf "%s: %d valid JSON lines@." label n
        | Error msg ->
            Format.printf "%s: INVALID (%s)@." label msg;
            exit 1
      in
      check "metrics" metrics_out;
      check "spans" spans_out
    end
  in
  let duration =
    Arg.(value & opt float 10. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run time.")
  in
  let app_arg =
    Arg.(
      value
      & opt string "paxos"
      & info [ "app" ] ~docv:"APP"
          ~doc:"Experiment to instrument (paxos|kvstore|gossip|steering).")
  in
  let metrics_out =
    Arg.(
      value
      & opt string "obs_metrics.jsonl"
      & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Metrics JSON-lines output path.")
  in
  let spans_out =
    Arg.(
      value
      & opt string "obs_spans.jsonl"
      & info [ "spans-out" ] ~docv:"FILE" ~doc:"Spans JSON-lines output path.")
  in
  let include_volatile =
    Arg.(
      value & flag
      & info [ "include-volatile" ]
          ~doc:"Also export wall-clock-derived metrics (breaks per-seed determinism).")
  in
  let no_check =
    Arg.(
      value & flag
      & info [ "no-check" ] ~doc:"Skip re-reading and validating the emitted files.")
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Run an experiment with the observability layer attached and export metrics and \
          causal spans as JSON-lines; by default the files are re-read and validated \
          (non-zero exit on empty or malformed output).")
    Term.(
      const run $ seed_arg $ duration $ app_arg $ metrics_out $ spans_out $ include_volatile
      $ no_check)

let () =
  let doc = "Reproduction of 'Simplifying Distributed System Development' (HotOS 2009)." in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            randtree_cmd;
            gossip_cmd;
            dissem_cmd;
            paxos_cmd;
            dht_cmd;
            kvstore_cmd;
            chaos_cmd;
            steering_cmd;
            metrics_cmd;
            overhead_cmd;
            explore_cmd;
            obs_cmd;
          ]))
