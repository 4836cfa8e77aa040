(* Crash-recovery semantics end to end: durable paxos keeps agreement
   through crash storms that amnesiac paxos provably cannot; torn
   writes recover without raising; durability is deterministic and
   zero-cost for apps that don't opt in. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let nid = Proto.Node_id.of_int

(* A small consensus group keeps the quorum-intersection argument
   sharp: majority is 2 of 3, so one amnesiac acceptor plus the reborn
   proposer can outvote the survivor's memory. *)
module Params = struct
  let population = 3
  let client_period = 0.5
  let retry_timeout = 1.5
end

(* [durable] with every WAL record its [log] returns appended to
   [records], in the order the engine asked for them. *)
let recording records durable =
  Option.map
    (fun (d : _ Proto.Durability.t) ->
      {
        d with
        log =
          (fun ~prev ~next ->
            let r = d.log ~prev ~next in
            Option.iter
              (fun s ->
                Buffer.add_string records (string_of_int (String.length s));
                Buffer.add_char records ':';
                Buffer.add_string records s)
              r;
            r);
      })
    durable

(* Paxos whose agreement tracker also runs the full fold on every view
   the engine hands it and counts any disagreement, so every storm
   below doubles as a differential test of the tracker. Its WAL records
   are kept for the byte-identity pins. *)
module P = struct
  include Apps.Paxos.Make (Params)

  let records = Buffer.create 4096
  let durable = recording records durable
  let agreement = Test_support.Differential.counts ()
  let properties = Test_support.Differential.check_named agreement "agreement" properties
end

module F = Engine.Faultplan

(* Seeded crash storms for any app: [n] nodes on a uniform 20 ms
   network warm up, then [victims] of them crash [rounds] times in
   [mode], two seconds apart. Same seed + same mode = same run. *)
module Storm (A : Proto.App_intf.APP) = struct
  module Eng = Engine.Sim.Make (A)
  module Run = F.Run (Eng)

  let start ~n ~resolver ~seed =
    let topology =
      Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
    in
    let eng = Eng.create ~seed ~topology () in
    Eng.set_resolver eng resolver;
    for i = 0 to n - 1 do
      Eng.spawn eng (nid i)
    done;
    eng

  let run ~n ~resolver ~warmup ~victims ~rounds ~and_then ~mode ~seed =
    let eng = start ~n ~resolver ~seed in
    Eng.run_for eng warmup;
    Run.execute ~and_then eng
      (F.plan [ (0., F.Crash_storm { victims; period = 2.0; rounds; mode }) ]);
    eng

  (* Decide some instances, then crash nodes 0 and 1 in turn and let
     the group settle. Node 2 is never crashed: it survives as a
     witness of every pre-storm decision, so an amnesiac rebirth that
     re-decides an old instance disagrees with a *live* replica. *)
  let paxos ?(and_then = 4.0) ~mode ~seed () =
    run ~n:3 ~resolver:Apps.Paxos.self_resolver ~warmup:2.0 ~victims:1 ~rounds:2 ~and_then ~mode
      ~seed

  let kvstore ~mode ~seed =
    run ~n:Apps.Kvstore.Default_params.population ~resolver:Apps.Kvstore.session_resolver
      ~warmup:3.0 ~victims:2 ~rounds:3 ~and_then:20.0 ~mode ~seed
end

module Sp = Storm (P)
module E = Sp.Eng

let storm ?and_then ~mode ~seed () =
  Buffer.clear P.records;
  Sp.paxos ?and_then ~mode ~seed ()

let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
let modes = [ F.Clean; F.Torn; F.Amnesia ]

(* The headline: with intact disks, every crash in the storm is
   survivable — promises, accepted values and the instance counter come
   back, so agreement holds on every seed. *)
let test_durable_agreement_holds () =
  List.iter
    (fun seed ->
      let eng = storm ~mode:F.Clean ~seed () in
      checki (Printf.sprintf "clean storm keeps agreement (seed %d)" seed) 0
        (List.length (E.violations eng));
      let s = E.stats eng in
      checkb (Printf.sprintf "recoveries happened (seed %d)" seed) true (s.recoveries > 0);
      checkb (Printf.sprintf "wal written (seed %d)" seed) true (s.wal_appends > 0))
    seeds

(* The counterfactual on the same seeds: wipe the disks at each crash
   and the reborn proposer reuses instances its previous life already
   decided — somewhere across these storms two replicas must decide
   differently. This is the forgotten-promise violation durable state
   exists to prevent. *)
let test_amnesia_violates_agreement () =
  let violated =
    List.exists (fun seed -> E.violations (storm ~mode:F.Amnesia ~seed ()) <> []) seeds
  in
  checkb "some amnesia storm violates agreement" true violated;
  (* And the wipes really happened — the engine counted them. *)
  let s = E.stats (storm ~mode:F.Amnesia ~seed:1 ()) in
  checkb "amnesia wipes counted" true (s.amnesia_wipes > 0)

(* Torn writes: every crash truncates the WAL mid-record. Recovery must
   never raise — the checksum detects the torn tail, drops it, and the
   node resumes from a valid (possibly older) state. *)
let test_torn_write_recovery_never_raises () =
  let torn_seen = ref false and recovered_seen = ref false in
  List.iter
    (fun seed ->
      let eng = storm ~mode:F.Torn ~seed () in
      let s = E.stats eng in
      if s.torn_writes > 0 then torn_seen := true;
      if s.torn_recoveries > 0 then recovered_seen := true;
      (* The state every node resumed with is a real paxos state. *)
      List.iter
        (fun (_, st) -> ignore (Apps.Paxos.Int_map.cardinal (P.decided st)))
        (E.live_nodes eng))
    seeds;
  checkb "some WAL actually tore" true !torn_seen;
  checkb "torn tails were detected and dropped" true !recovered_seen

(* Bit-determinism with durability in the loop: same seed, same plan,
   same everything out. *)
let test_deterministic () =
  let observe () =
    let eng = storm ~mode:F.Amnesia ~seed:5 () in
    ( E.stats eng,
      E.violations eng,
      List.map
        (fun (id, st) -> (Proto.Node_id.to_int id, Apps.Paxos.Int_map.bindings (P.decided st)))
        (E.live_nodes eng) )
  in
  checkb "identical runs" true (observe () = observe ())

(* Zero-cost opt-out: an app without a durability hook creates no
   store, writes no bytes, defers no sends — even across crashes. *)
module L = Test_support.Lock_app
module EL = Engine.Sim.Make (L)

let test_zero_cost_without_hook () =
  let topo = Net.Topology.uniform ~n:2 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1e6 ~loss:0.) in
  let eng = EL.create ~seed:3 ~topology:topo () in
  EL.spawn eng (nid 0);
  EL.spawn eng (nid 1);
  EL.run_for eng 1.;
  EL.kill eng (nid 0);
  EL.restart eng (nid 0);
  EL.kill_amnesia eng (nid 1);
  EL.restart eng (nid 1);
  EL.run_for eng 1.;
  let s = EL.stats eng in
  checki "no wal appends" 0 s.wal_appends;
  checki "no snapshots" 0 s.snapshots;
  checki "no bytes written" 0 s.store_bytes_written;
  checkb "no store materialized" true (EL.store eng (nid 0) = None)

(* Dissem rides the same hook with its checkpoint codec: a cleanly
   crashed peer comes back owning the blocks it had already fetched. *)
module D = Apps.Dissem.Make (struct
  let population = 6
  let blocks = 16
  let block_bytes = 1024
  let degree = 3
  let tick_period = 0.2
  let request_timeout = 3.0
  let candidate_cap = 8
end)

module ED = Engine.Sim.Make (D)

let test_dissem_keeps_blocks () =
  let topo =
    Net.Topology.uniform ~n:6 (Net.Linkprop.v ~latency:0.02 ~bandwidth:500_000. ~loss:0.)
  in
  let eng = ED.create ~seed:2 ~topology:topo () in
  ED.set_resolver eng Core.Resolver.random;
  for i = 0 to 5 do
    ED.spawn eng (nid i)
  done;
  ED.run_for eng 4.;
  let before =
    match ED.state_of eng (nid 3) with
    | Some st -> Apps.Dissem.Int_set.cardinal (D.have st)
    | None -> 0
  in
  checkb "peer fetched something before the crash" true (before > 0);
  ED.kill eng (nid 3);
  ED.restart eng (nid 3);
  ED.run_for eng 0.01;
  let after =
    match ED.state_of eng (nid 3) with
    | Some st -> Apps.Dissem.Int_set.cardinal (D.have st)
    | None -> 0
  in
  checkb "blocks survived the crash" true (after >= before);
  (* The amnesiac variant really loses them — the hook is load-bearing. *)
  ED.kill_amnesia eng (nid 3);
  ED.restart eng (nid 3);
  ED.run_for eng 0.01;
  let wiped =
    match ED.state_of eng (nid 3) with
    | Some st -> Apps.Dissem.Int_set.cardinal (D.have st)
    | None -> max_int
  in
  checki "amnesia restarts empty" 0 wiped

(* ---------- incremental agreement ----------

   The engine checks agreement through the property's tracker; [P]
   also runs the full fold on every view the tracker is handed and
   counts each disagreement. Amnesia crashes reboot nodes with empty
   maps and really violate agreement, so both verdicts and the recount
   path are covered. *)
module Diff = Test_support.Differential
module Ex = Mc.Explorer.Make (P)

let counts = P.agreement

let agree_with_full_fold ~checked =
  checkb "every event was checked" true (counts.checks > checked);
  checkb "some views violate agreement" true (counts.refusals > 0);
  checki "tracked and full-fold verdicts agree" 0 counts.mismatches

let test_agreement_matches_full_fold () =
  Diff.reset counts;
  List.iter
    (fun mode -> List.iter (fun seed -> ignore (storm ~mode ~seed ())) seeds)
    modes;
  agree_with_full_fold ~checked:1000

(* Explorer worlds are checked with the full fold, never a tracker.
   Explores from the engine's views, taken every half second through
   an amnesia storm, run in the same domain between the engine's own
   tracked checks and must not disturb them. The views are taken 10 ms
   past each half second: taken on it, every one of them held no
   message in flight, and each explore saw one world. *)
let test_agreement_matches_full_fold_explored () =
  Diff.reset counts;
  List.iter
    (fun seed ->
      let eng = storm ~and_then:0.01 ~mode:F.Amnesia ~seed () in
      for _ = 1 to 8 do
        E.run_for eng 0.5;
        let world = Ex.world_of_view (E.global_view eng) in
        ignore (Ex.explore ~include_drops:true ~max_worlds:2_000 ~depth:3 world)
      done)
    [ 1; 2; 3 ];
  checkb "explorer worlds were checked in full" true (counts.full > 1000);
  agree_with_full_fold ~checked:1000

(* Engines stepped one event each, in turn, until [until] virtual
   seconds. In each, node 1 then node 0 then node 1 again loses its
   disk at 2, 4 and 6 s and reboots half a second later; at 9 s nodes
   0 and 1 die for good, so node 2 alone decides the verdict. *)
let in_turn engines ~until =
  let faults = Array.make (List.length engines) [ 2.0; 4.0; 6.0; 9.0 ] in
  let stepped = ref true in
  while !stepped do
    stepped := false;
    List.iteri
      (fun i eng ->
        let now = Dsim.Vtime.to_seconds (E.now eng) in
        (match faults.(i) with
        | [ at ] when now >= at ->
            E.kill eng (nid 0);
            E.kill eng (nid 1);
            faults.(i) <- []
        | at :: later when now >= at ->
            let victim = nid (List.length later mod 2) in
            E.kill_amnesia eng victim;
            E.restart eng ~after:0.5 victim;
            faults.(i) <- later
        | _ -> ());
        if now < until && E.step eng then stepped := true)
      engines
  done

let start seed = Sp.start ~n:3 ~resolver:Apps.Paxos.self_resolver ~seed

let test_agreement_engines_in_turn () =
  Diff.reset counts;
  List.iter (fun (a, b) -> in_turn [ start a; start b ] ~until:12.) [ (1, 2); (3, 4) ];
  agree_with_full_fold ~checked:1000

(* A fork copies its parent's tracker; the two then take turns. *)
let test_agreement_fork_in_turn () =
  Diff.reset counts;
  List.iter
    (fun seed ->
      let parent = start seed in
      E.run_for parent 1.5;
      in_turn [ parent; E.fork parent ] ~until:12.)
    [ 1; 2; 3 ];
  agree_with_full_fold ~checked:1000

(* Lookahead forks the engine once per alternative of every proposer
   choice; each fork starts from a copy of the tracker and checks its
   own events. *)
let test_agreement_lookahead () =
  Diff.reset counts;
  let events = ref 0 and forks = ref 0 in
  List.iter
    (fun seed ->
      let eng = start seed in
      E.set_lookahead eng { E.default_lookahead with horizon = 1.0; max_events = 200 };
      E.run_for eng 2.0;
      Sp.Run.execute ~and_then:4.0 eng
        (F.plan
           [ (0., F.Crash_storm { victims = 1; period = 2.0; rounds = 2; mode = F.Amnesia }) ]);
      let s = E.stats eng in
      events := !events + s.events_processed;
      forks := !forks + s.lookahead_forks)
    [ 1; 2; 3 ];
  checkb "lookahead forks ran" true (!forks > 0);
  agree_with_full_fold ~checked:!events

(* ---------- WAL byte identity ----------

   A change to how [log] finds what a transition changed must not
   change what it writes. The pins below are the append count, the
   bytes charged to the disks and a digest over the stream of WAL
   records plus every node's final store (snapshot, surviving WAL
   records, torn flag), for seeded crash storms in all three crash
   modes. *)
module Rk = struct
  include Apps.Kvstore.Default

  let records = Buffer.create 4096
  let durable = recording records durable
end

module Erk = Storm (Rk)

let store_digest records stores =
  let b = Buffer.create 4096 in
  Buffer.add_buffer b records;
  List.iter
    (function
      | None -> Buffer.add_string b "-"
      | Some s ->
          let { Store.snapshot; entries; torn } = Store.read s in
          Buffer.add_string b (Option.value ~default:"" snapshot);
          List.iter (Buffer.add_string b) entries;
          Buffer.add_string b (if torn then "T" else "C"))
    stores;
  Digest.to_hex (Digest.string (Buffer.contents b))

let mode_name = function F.Clean -> "clean" | F.Torn -> "torn" | F.Amnesia -> "amnesia"

let wal_pin ~app ~mode ~appends ~bytes ~digest =
  Printf.sprintf "%s %s: appends=%d bytes=%d digest=%s" app (mode_name mode) appends bytes digest

let paxos_wal ~mode ~seed =
  let eng = storm ~and_then:20.0 ~mode ~seed () in
  let s = E.stats eng in
  wal_pin ~app:"paxos" ~mode ~appends:s.wal_appends ~bytes:s.store_bytes_written
    ~digest:(store_digest P.records (List.init 3 (fun i -> E.store eng (nid i))))

let kv_wal ~mode ~seed =
  Buffer.clear Rk.records;
  let eng = Erk.kvstore ~mode ~seed in
  let s = Erk.Eng.stats eng in
  wal_pin ~app:"kvstore" ~mode ~appends:s.wal_appends ~bytes:s.store_bytes_written
    ~digest:
      (store_digest Rk.records
         (List.init Apps.Kvstore.Default_params.population (fun i -> Erk.Eng.store eng (nid i))))

let test_wal_bytes_pinned () =
  let got =
    List.map (fun mode -> paxos_wal ~mode ~seed:4) modes
    @ List.map (fun mode -> kv_wal ~mode ~seed:6) modes
  in
  Alcotest.(check (list string))
    "WAL appends, bytes and record digests"
    [
      "paxos clean: appends=833 bytes=39556 digest=28e3d0e821cee7c8ea2c682316660f99";
      "paxos torn: appends=833 bytes=39408 digest=021a267f61155cead93711f90c76f59c";
      "paxos amnesia: appends=833 bytes=39368 digest=1a7c0554c19e7878cd0f0790a145676d";
      "kvstore clean: appends=1466 bytes=24194 digest=e576670cfc80e9a184f658641bc59eee";
      "kvstore torn: appends=1457 bytes=24025 digest=7fa157b5f5cf32ee7f1cde5be4751973";
      "kvstore amnesia: appends=1432 bytes=21787 digest=63d3ff7ae55ccef2e10da05f148a9a3b";
    ]
    got

(* ---------- deferred compaction ----------

   Compaction charges a snapshot [Codec.size] bytes and encodes it only
   when a recovery reads the disk, so the event streams stay
   byte-identical only while that size is exact. *)

(* [A] with one more property, which after every event compares each
   live node's snapshot size with the length of its encoding. It always
   holds, so the run is the one [A] alone would make. *)
module Size_probe (A : Proto.App_intf.APP) = struct
  include A

  let codec = (Option.get durable).Proto.Durability.codec
  let checked = ref 0
  let mismatches = ref 0

  let properties =
    Core.Property.safety ~name:"snapshot size exact" (fun view ->
        Proto.View.fold
          (fun () _ st ->
            incr checked;
            if Wire.Codec.size codec st <> String.length (Wire.Codec.encode codec st) then
              incr mismatches)
          () view;
        true)
    :: properties
end

module Ps = Size_probe (Apps.Paxos.Make (Params))
module Ps_storm = Storm (Ps)
module Ks = Size_probe (Apps.Kvstore.Default)
module Ks_storm = Storm (Ks)

let test_snapshot_size_exact () =
  List.iter
    (fun mode ->
      List.iter (fun seed -> ignore (Ps_storm.paxos ~and_then:20.0 ~mode ~seed ())) [ 1; 2; 3; 4 ];
      List.iter (fun seed -> ignore (Ks_storm.kvstore ~mode ~seed)) [ 5; 6 ])
    modes;
  checkb "paxos states were sized" true (!Ps.checked > 1000);
  checki "paxos sizes are exact" 0 !Ps.mismatches;
  checkb "kvstore states were sized" true (!Ks.checked > 1000);
  checki "kvstore sizes are exact" 0 !Ks.mismatches

(* Paxos whose snapshot codec counts the states it projects. [conv]
   projects once per [size] and once per [encode], and the engine sizes
   every snapshot it installs exactly once, so the snapshots encoded are
   the projections less [stats.snapshots]. *)
module Pc = struct
  include Apps.Paxos.Make (Params)

  let projections = ref 0

  let durable =
    Option.map
      (fun (d : _ Proto.Durability.t) ->
        {
          d with
          codec =
            Wire.Codec.conv
              (fun st ->
                incr projections;
                st)
              Fun.id d.codec;
        })
      durable
end

module Pc_storm = Storm (Pc)

let test_compaction_never_encodes () =
  Pc.projections := 0;
  let eng = Pc_storm.start ~n:3 ~resolver:Apps.Paxos.self_resolver ~seed:9 in
  Pc_storm.Eng.run_for eng 300.;
  let s = Pc_storm.Eng.stats eng in
  checkb "300 s of compactions" true (s.snapshots > 100);
  checki "no recovery" 0 s.recoveries;
  checki "no snapshot encoded" 0 (!Pc.projections - s.snapshots);
  List.iter
    (fun seed ->
      Pc.projections := 0;
      let eng = Pc_storm.paxos ~mode:F.Clean ~seed () in
      let s = Pc_storm.Eng.stats eng in
      let label = Printf.sprintf " (seed %d)" seed in
      checkb ("recoveries happened" ^ label) true (s.recoveries > 0);
      checki ("one encode per recovery" ^ label) s.recoveries
        (!Pc.projections - s.snapshots))
    seeds

let () =
  Alcotest.run "durability"
    [
      ( "paxos crash storms",
        [
          Alcotest.test_case "durable agreement holds" `Quick test_durable_agreement_holds;
          Alcotest.test_case "amnesia violates agreement" `Quick test_amnesia_violates_agreement;
          Alcotest.test_case "torn-write recovery" `Quick test_torn_write_recovery_never_raises;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "WAL bytes pinned" `Quick test_wal_bytes_pinned;
        ] );
      ( "incremental agreement",
        [
          Alcotest.test_case "storms match the full fold" `Quick test_agreement_matches_full_fold;
          Alcotest.test_case "explored worlds match the full fold" `Quick
            test_agreement_matches_full_fold_explored;
          Alcotest.test_case "engines in turn match the full fold" `Quick
            test_agreement_engines_in_turn;
          Alcotest.test_case "parent and fork in turn match the full fold" `Quick
            test_agreement_fork_in_turn;
          Alcotest.test_case "lookahead matches the full fold" `Quick test_agreement_lookahead;
        ] );
      ( "deferred compaction",
        [
          Alcotest.test_case "snapshot sizes exact in storms" `Quick test_snapshot_size_exact;
          Alcotest.test_case "compaction never encodes" `Quick test_compaction_never_encodes;
        ] );
      ( "opt-in boundary",
        [
          Alcotest.test_case "zero-cost without hook" `Quick test_zero_cost_without_hook;
          Alcotest.test_case "dissem keeps blocks" `Quick test_dissem_keeps_blocks;
        ] );
    ]
