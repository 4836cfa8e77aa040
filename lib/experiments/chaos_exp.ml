(** Chaos soaks (robustness; paper §2's "simulation under various
    deployment settings", taken adversarially). Each application runs
    through a seeded random {!Engine.Chaos} storm — crashes,
    partitions, degradations, duplication, corruption, reordering —
    and is judged on the two promises the runtime makes: no safety
    violation ever, and the app's own objective moving again within a
    grace period. One {!report} shape covers every app so tests and
    the CLI print one table. *)

type report = {
  app : string;
  seed : int;
  violations : int;
  recovered : bool;
  self_healed : bool;  (** no node still degraded when grace ran out *)
  heal_time : float option;  (** grace seconds until the last node un-degraded *)
  plan_events : int;
  plan_text : string;  (** [Faultplan.pp] of the generated plan — the replay witness *)
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
  decode_failures : int;
  byz_emitted : int;  (** byzantine mutants delivered (0 unless the profile mutates) *)
  byz_rejected : int;  (** mutants bounced by the app's validator *)
  byz_accepted : int;  (** mutants the validator let through to a handler *)
  degraded_entries : int;
  degraded_exits : int;
  retransmits : int;  (** reliable-delivery retransmissions (0 unless enabled) *)
  giveups : int;  (** reliable sends abandoned after the retry budget *)
  sheds : int;  (** overload-layer sheds, all causes (0 unless the profile bursts) *)
  max_depth : int;  (** mailbox high-water mark over the whole soak *)
  shed_bounded : bool;  (** queues never exceeded their configured capacity *)
  overload_recovered : bool;  (** every queue drained by the end of grace *)
  elapsed : float;
}

(* Every soak uses one flat LAN-ish topology: the storm supplies the
   adversity, the base network stays out of the way. *)
let topology ~n =
  Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.02 ~bandwidth:200_000. ~loss:0.)

(* One report shape for every app: the soak's verdicts plus the
   counters the table prints. *)
let report_of ~app ~seed (o : Engine.Chaos.outcome) =
  let s = o.stats in
  {
    app;
    seed;
    violations = List.length o.violations;
    recovered = o.recovered;
    self_healed = o.self_healed;
    heal_time = o.heal_time;
    plan_events = List.length (Engine.Faultplan.events o.plan);
    plan_text = Format.asprintf "%a" Engine.Faultplan.pp o.plan;
    delivered = s.messages_delivered;
    dropped = s.messages_dropped;
    duplicated = s.messages_duplicated;
    corrupted = s.messages_corrupted;
    reordered = s.messages_reordered;
    decode_failures = s.decode_failures;
    byz_emitted = s.byz_emitted;
    byz_rejected = s.byz_rejected;
    byz_accepted = s.byz_accepted;
    degraded_entries = s.degraded_entries;
    degraded_exits = s.degraded_exits;
    retransmits = s.rel_retransmits;
    giveups = s.rel_giveups;
    sheds = s.sheds_mailbox;
    max_depth = s.max_mailbox_depth;
    shed_bounded = o.shed_bounded;
    overload_recovered = o.overload_recovered;
    elapsed = o.elapsed;
  }

(* A soak fails on any violation, a stuck objective, a node still
   degraded after grace, an overrun mailbox or an undrained backlog. *)
let failed r =
  r.violations > 0 || (not r.recovered) || (not r.self_healed) || (not r.shed_bounded)
  || not r.overload_recovered

(* Nodes [0 .. n-1] boot at random instants in the first 0.3s. *)
let spawn_staggered ~seed ~n (spawn : ?after:float -> Proto.Node_id.t -> unit) =
  let rng = Dsim.Rng.create (seed + 77) in
  for i = 0 to n - 1 do
    spawn ~after:(Dsim.Rng.float rng 0.3) (Proto.Node_id.of_int i)
  done

(* Sums [count st] over the live nodes. *)
let total live count = List.fold_left (fun acc (_, st) -> acc + count st) 0 live

(* ---------- paxos: 5 replicas, commands keep committing ---------- *)

module Paxos_app = Apps.Paxos.Default
module Paxos_soak = Engine.Chaos.Soak (Paxos_app)

let paxos_profile = { Engine.Chaos.default_profile with crashes = 2; partitions = 1 }

let soak_paxos ?(profile = paxos_profile) ?reliable ?obs seed =
  let n = Apps.Paxos.Default_params.population in
  let decided eng =
    total (Paxos_soak.E.live_nodes eng) (fun st ->
        Apps.Paxos.Int_map.cardinal (Paxos_app.decided st))
  in
  Paxos_soak.run ?reliable ?obs ~seed ~topology:(topology ~n) profile
    ~setup:(fun eng ->
      Paxos_soak.E.set_resolver eng (Apps.Paxos.round_robin_resolver ~population:n);
      spawn_staggered ~seed ~n (Paxos_soak.E.spawn eng))
    ~recovered:(fun eng ->
      (* Consensus recovered iff the log keeps growing after the storm. *)
      let before = decided eng in
      fun () -> decided eng > before)
  |> report_of ~app:"paxos" ~seed

(* ---------- kvstore: primary protected, replicas catch up ---------- *)

module Kv_app = Apps.Kvstore.Default
module Kv_soak = Engine.Chaos.Soak (Kv_app)

let kvstore_profile =
  (* Clean crashes are survivable now that the store is durable: a
     revived replica recovers its applied log from disk instead of
     re-serving early sequence numbers (the staleness monotonic-reads
     exists to flag). The primary stays protected — its in-flight
     sequencing window is still the system's only copy. *)
  { Engine.Chaos.default_profile with crashes = 2; protect = [ 0 ] }

let soak_kvstore ?(profile = kvstore_profile) ?reliable ?obs seed =
  let n = Apps.Kvstore.Default_params.population in
  Kv_soak.run ?reliable ?obs ~seed ~topology:(topology ~n) profile
    ~setup:(fun eng ->
      Kv_soak.E.set_resolver eng Apps.Kvstore.session_resolver;
      spawn_staggered ~seed ~n (Kv_soak.E.spawn eng))
    ~recovered:(fun eng ->
      (* Recovery = anti-entropy closes the gap: every replica reaches
         at least the head the primary had when the storm ended. *)
      let seqs () = List.map (fun (_, st) -> Kv_app.applied_seq st) (Kv_soak.E.live_nodes eng) in
      let head = List.fold_left max 0 (seqs ()) in
      fun () -> List.for_all (fun seq -> seq >= head) (seqs ()))
  |> report_of ~app:"kvstore" ~seed

(* ---------- flapping partitions: the self-healing storm ---------- *)

(* A pure flap storm sized to the failure detector: each cut must
   outlast the ~18s of silence phi-accrual suspicion needs to enter
   degraded mode, and each heal the ~9s of fresh heartbeats it needs
   to leave it, so a 30s half-period lets every cycle be seen. The
   channel faults stay off — the flapping link is the whole adversity,
   reliable delivery rides along (retransmissions across the cut, acks
   judged through the same emulator), and [self_healed] judges whether
   everyone left degraded mode after the final heal. *)
let flap_profile =
  {
    Engine.Chaos.default_profile with
    crashes = 0; partitions = 0; degrades = 0;
    duplicate_rate = 0.; corrupt_rate = 0.; corrupt_flip = 0.; reorder_rate = 0.; reorder_window = 0.;
    flaps = 2; flap_period = 30.; storm = 130.; grace = 30.;
  }

let soak_paxos_flap ?(profile = flap_profile) ?obs seed =
  { (soak_paxos ~profile ~reliable:true ?obs seed) with app = "paxos-flap" }

let soak_kvstore_flap ?(profile = flap_profile) ?obs seed =
  { (soak_kvstore ~profile ~reliable:true ?obs seed) with app = "kvstore-flap" }

(* ---------- gossip: 12 nodes, rumors survive and respread ---------- *)

module Gossip_app = Apps.Gossip.Make (struct
  let population = 12
  let round_period = 0.5
  let candidate_cap = 8
end)

module Gossip_soak = Engine.Chaos.Soak (Gossip_app)

let gossip_profile = { Engine.Chaos.default_profile with crashes = 3 }
let gossip_rumors = [ 0; 1; 2; 3; 4 ]

let soak_gossip ?(profile = gossip_profile) seed =
  let n = 12 in
  let source = Proto.Node_id.of_int 1 in
  Gossip_soak.run ~seed ~topology:(topology ~n) profile
    ~setup:(fun eng ->
      Gossip_soak.E.set_resolver eng Core.Resolver.random;
      spawn_staggered ~seed ~n (Gossip_soak.E.spawn eng);
      Gossip_soak.E.inject eng ~after:0.5 ~src:source ~dst:source
        (Gossip_app.seed_rumors source gossip_rumors))
    ~recovered:(fun eng ->
      (* Recovery = push-pull refills everyone, including nodes that
         restarted with empty rumor sets. *)
      let want = Apps.Gossip.Int_set.of_list gossip_rumors in
      fun () ->
        List.for_all
          (fun (_, st) -> Apps.Gossip.Int_set.subset want (Gossip_app.known st))
          (Gossip_soak.E.live_nodes eng))
  |> report_of ~app:"gossip" ~seed

(* ---------- dht: 16 nodes, lookups keep completing ---------- *)

module Dht_app = Apps.Dht.Make (struct
  let population = 16
  let query_period = 1.0
  let max_hops = 24
end)

module Dht_soak = Engine.Chaos.Soak (Dht_app)

let dht_profile = { Engine.Chaos.default_profile with crashes = 3 }

let soak_dht ?(profile = dht_profile) seed =
  let n = 16 in
  let completed eng =
    total (Dht_soak.E.live_nodes eng) (fun st -> List.length (Dht_app.lookups st))
  in
  Dht_soak.run ~seed ~topology:(topology ~n) profile
    ~setup:(fun eng ->
      Dht_soak.E.set_resolver eng Core.Resolver.random;
      spawn_staggered ~seed ~n (Dht_soak.E.spawn eng))
    ~recovered:(fun eng ->
      let before = completed eng in
      fun () -> completed eng > before)
  |> report_of ~app:"dht" ~seed

(* ---------- randtree: 8 nodes, tree re-forms around the root ---------- *)

module Tree_app = Apps.Randtree_choice.Default
module Tree_soak = Engine.Chaos.Soak (Tree_app)

let randtree_profile =
  (* The root is the tree's identity; protect it like the kvstore
     primary. *)
  { Engine.Chaos.default_profile with crashes = 2; protect = [ 0 ] }

let soak_randtree ?(profile = randtree_profile) seed =
  let n = 8 in
  Tree_soak.run ~seed ~topology:(topology ~n) profile
    ~setup:(fun eng ->
      Tree_soak.E.set_resolver eng Core.Resolver.random;
      (* The root first, then one joiner every ~0.2s. *)
      let rng = Dsim.Rng.create (seed + 77) in
      Tree_soak.E.spawn eng (Proto.Node_id.of_int 0);
      for i = 1 to n - 1 do
        Tree_soak.E.spawn eng
          ~after:(0.3 +. (0.2 *. float_of_int i) +. Dsim.Rng.float rng 0.1)
          (Proto.Node_id.of_int i)
      done)
    ~recovered:(fun eng () ->
      List.for_all (fun (_, st) -> Tree_app.is_joined st) (Tree_soak.E.live_nodes eng))
  |> report_of ~app:"randtree" ~seed

(* ---------- dispatcher ---------- *)

let apps = [ "paxos"; "kvstore"; "gossip"; "dht"; "randtree" ]

(* [scale] stretches a soak beyond its test-sized defaults: the storm
   and grace grow by [factor], crash/partition/degrade counts grow
   with it. Used by the CLI's large-bounds runs. *)
let scale factor (p : Engine.Chaos.profile) =
  if factor <= 0. then invalid_arg "Chaos_exp.scale: non-positive factor";
  let times n = max n (int_of_float (ceil (float_of_int n *. factor))) in
  {
    p with
    crashes = times p.crashes; partitions = times p.partitions; degrades = times p.degrades;
    storm = p.storm *. factor; grace = p.grace *. factor;
  }

(* [with_flaps n] grafts a flapping partition onto any profile,
   stretching the storm so [n] full cycles (sized for the failure
   detector, see {!flap_profile}) fit inside it and leaving a grace
   long enough for the last exit from degraded mode to be observed. *)
let with_flaps flaps (p : Engine.Chaos.profile) =
  if flaps < 0 then invalid_arg "Chaos_exp.with_flaps: negative flap count";
  if flaps = 0 then p
  else
    let needed = 2. *. p.flap_period *. float_of_int flaps /. 0.95 in
    { p with flaps; storm = Float.max p.storm (Float.ceil needed); grace = Float.max p.grace 30. }

(* [with_overload n] asks the plan for [n] targeted injection bursts;
   the soak reacts to the knob by bounding mailboxes and turning on
   priority shedding and the circuit breaker. *)
let with_overload overload (p : Engine.Chaos.profile) =
  if overload < 0 then invalid_arg "Chaos_exp.with_overload: negative overload count";
  if overload = 0 then p else { p with overload_nodes = overload }

(* [with_drift n] skews [n] nodes' local clocks (the profile's default
   drift band) and throws in one NTP-style step excursion alongside, so
   a drift soak also crosses a discontinuity. Zero leaves the profile —
   and hence the plan RNG stream — completely untouched. *)
let with_drift drift (p : Engine.Chaos.profile) =
  if drift < 0 then invalid_arg "Chaos_exp.with_drift: negative drift count";
  if drift = 0 then p else { p with drift_nodes = drift; clock_steps = 1 }

(* [with_byz n] turns on byzantine message mutation: [n] directed links
   carry typed decodes-clean mutations for a window each (0 leaves the
   profile — and hence the plan RNG stream — completely untouched; [-1]
   mutates the global channel for the whole storm). Rates are sized to
   the exposure: a few windowed links can run hot (25%), while the
   global channel mutates every message of every pair for the whole
   storm, so it runs at 5% — enough mutants reach the validators to
   matter, low enough that compound forgeries (two mutants conspiring
   on one protocol step, which no unauthenticated protocol survives)
   stay out of a short soak. *)
let with_byz byz (p : Engine.Chaos.profile) =
  if byz < -1 then invalid_arg "Chaos_exp.with_byz: bad byzantine link count";
  if byz = 0 then p
  else if byz < 0 then { p with byz_links = 0; byz_rate = 0.05 }
  else { p with byz_links = byz; byz_rate = 0.25 }

let run ?(factor = 1.) ?(flaps = 0) ?(overload = 0) ?(drift = 0) ?(byz = 0) ~seed app =
  let profile base =
    with_byz byz
      (with_drift drift (with_overload overload (with_flaps flaps (scale factor base))))
  in
  match app with
  | "paxos" -> soak_paxos ~profile:(profile paxos_profile) seed
  | "kvstore" -> soak_kvstore ~profile:(profile kvstore_profile) seed
  | "gossip" -> soak_gossip ~profile:(profile gossip_profile) seed
  | "dht" -> soak_dht ~profile:(profile dht_profile) seed
  | "randtree" -> soak_randtree ~profile:(profile randtree_profile) seed
  | other -> invalid_arg ("Chaos_exp.run: unknown app " ^ other)
