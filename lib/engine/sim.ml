module Make (App : Proto.App_intf.APP) = struct
  module Smap = Map.Make (String)

  type node = { state : App.state; alive : bool; timer_gens : int Smap.t; incarnation : int }

  (* Every event carries the trace id of the causal chain it belongs
     to: minted at each root (a boot, an injected message), inherited by
     everything a handler does in response.  [Boot] needs none — the
     trace is minted when it is processed. *)
  type ev =
    | Boot of Proto.Node_id.t
    | Deliver of {
        src : Proto.Node_id.t;
        dst : Proto.Node_id.t;
        msg : App.msg;
        sent_at : Dsim.Vtime.t;
        trace : int;
        rel : int option;
            (* reliable-delivery sequence number when the send is
               tracked; shared by every retransmission and Netem
               duplicate of the same logical send, so the receiver can
               dedup both with one seen-set *)
        did : int;
            (* queue ticket under bounded mailboxes: a key into the
               overload layer's live-set so a message shed while queued
               is skipped when its Deliver fires. -1 = untracked (the
               unbounded default — zero bookkeeping) *)
        byz : bool;
            (* the payload is a byzantine mutant (Netem [Mutate] verdict
               survived the re-decode guarantee); drives the
               byz_rejected/byz_accepted split at validation time *)
      }
    | Timer_fire of {
        node : Proto.Node_id.t;
        id : string;
        gen : int;
        deadline : Dsim.Vtime.t;
            (* the node-local instant the timer targets; equals the
               global fire time while the node's clock is the identity.
               Kept on the event so a clock fault landing mid-flight can
               re-anchor the global fire time from the local deadline. *)
        trace : int;
      }
    | Outbound of {
        node : Proto.Node_id.t;
        incarnation : int;
        actions : App.msg Proto.Action.t list;
        trace : int;
      }
        (* sends withheld until the WAL record they depend on is durable
           (write-ahead discipline); dropped if the node crashed or was
           reborn in the interim — those messages were never sent *)
    | Rel_ack of { seq : int; trace : int }
        (* acknowledgment travelling back to the sender; judged by the
           same Netem the payload crossed, so a partition kills acks too *)
    | Rel_retransmit of { seq : int; trace : int }
        (* sender-side timeout: if [seq] is still unacked, send again *)
    | Chaff of { dst : Proto.Node_id.t; did : int }
        (* synthetic overload-burst arrival: occupies queue bookkeeping
           like a real message but carries no payload and wakes no
           handler — modelling external offered load converging on a
           victim without touching any application's message type *)
    | Overload_tick of { dst : Proto.Node_id.t; gen : int }
        (* generator heartbeat of an active overload burst; a stale
           generation (the burst was healed) dies silently *)

  type scheduled = { at : Dsim.Vtime.t; ev : ev }

  (* ---------- reliable delivery ---------- *)

  type reliable_config = {
    base_timeout : float;  (** first retransmit fires after this *)
    backoff : float;  (** timeout multiplier per retry (>= 1) *)
    max_retries : int;  (** retransmissions before giving up *)
    jitter : float;  (** fraction of random spread added to each timeout *)
    ack_bytes : int;  (** wire size of an ack, for Netem's delay model *)
    suspect_cap : int;
        (** while the failure detector suspects the destination, at most
            this many sends may sit pending per directed pair — the
            excess is shed (with a ["rel.shed:<kind>"] notification)
            instead of growing an unbounded retransmit queue toward a
            silent peer. 0 = unbounded (the historical behaviour). *)
  }

  let default_reliable =
    {
      base_timeout = 0.25;
      backoff = 2.0;
      max_retries = 5;
      jitter = 0.1;
      ack_bytes = 24;
      suspect_cap = 0;
    }

  type rel_entry = {
    re_src : Proto.Node_id.t;
    re_dst : Proto.Node_id.t;
    re_msg : App.msg;
    re_tries : int;  (* retransmissions performed so far *)
  }

  type rel = {
    r_cfg : reliable_config;
    r_kinds : (string, unit) Hashtbl.t option;  (* [None] = every kind *)
    mutable r_next_seq : int;
    r_pending : (int, rel_entry) Hashtbl.t;  (* sender side: unacked sends *)
    r_seen : (int, unit) Hashtbl.t;  (* receiver side: seqs already handled *)
    r_pair : (int * int, int) Hashtbl.t;
        (* pending count per directed pair, for the suspect cap and the
           circuit breaker's pressure signal *)
  }

  (* ---------- overload layer ---------- *)

  type shed_policy =
    | Drop_newest  (** refuse the incoming message *)
    | Drop_oldest  (** evict the oldest queued message to make room *)
    | By_priority
        (** evict the lowest-[App.priority] queued message (ties broken
            oldest-first); the incoming message is refused instead when
            it ranks strictly below everything queued *)

  type overload_config = {
    mailbox_capacity : int;  (** in-flight bound per destination node; 0 = unbounded *)
    link_capacity : int;  (** in-flight bound per directed pair; 0 = unbounded *)
    shed : shed_policy;
    service_time : float;
        (** seconds of extra delivery delay per message already queued
            at the destination — the backlog model that makes queues
            cost latency; 0 = free (historical behaviour) *)
    admit_rate : float;  (** token-bucket injects/second at the inject boundary; 0 = unlimited *)
    admit_burst : int;  (** token-bucket depth *)
    sojourn_threshold : float;
        (** CoDel-style admission gate: refuse injects while the oldest
            message queued at the destination has waited longer than
            this; 0 = off *)
  }

  let default_overload =
    {
      mailbox_capacity = 0;
      link_capacity = 0;
      shed = Drop_newest;
      service_time = 0.;
      admit_rate = 0.;
      admit_burst = 1;
      sojourn_threshold = 0.;
    }

  type ov_entry = { oe_src : int; oe_dst : int; oe_prio : int; oe_at : Dsim.Vtime.t }

  type ov = {
    ov_cfg : overload_config;
    ov_live : (int, ov_entry) Hashtbl.t;  (* did -> queued arrival *)
    ov_mbox : (int, int) Hashtbl.t;  (* dst -> live depth *)
    ov_link : (int * int, int) Hashtbl.t;  (* (src, dst) -> live depth *)
    ov_by_dst : (int, int list ref) Hashtbl.t;
        (* dst -> dids newest-first; compacted lazily on victim scans *)
    ov_shed_set : (int, unit) Hashtbl.t;
        (* tombstones: dids shed while queued, consumed when their
           Deliver fires (the heap has no keyed removal) *)
    ov_bursts : (int, int * float) Hashtbl.t;  (* dst -> (generation, rate) *)
    mutable ov_next_did : int;
    mutable ov_next_gen : int;
    mutable ov_tokens : float;
    mutable ov_refill_at : Dsim.Vtime.t;
    mutable ov_max_depth : int;  (* high-water mailbox depth ever seen *)
  }

  let ov_copy ov =
    let by_dst = Hashtbl.create (Int.max 16 (Hashtbl.length ov.ov_by_dst)) in
    Hashtbl.iter (fun k l -> Hashtbl.add by_dst k (ref !l)) ov.ov_by_dst;
    {
      ov with
      ov_live = Hashtbl.copy ov.ov_live;
      ov_mbox = Hashtbl.copy ov.ov_mbox;
      ov_link = Hashtbl.copy ov.ov_link;
      ov_by_dst = by_dst;
      ov_shed_set = Hashtbl.copy ov.ov_shed_set;
      ov_bursts = Hashtbl.copy ov.ov_bursts;
    }

  (* Synthetic burst arrivals: fixed transfer latency (no RNG — the
     burst machinery must not perturb seeded streams) and the lowest
     possible priority, so [By_priority] sheds chaff before anything
     an application actually sent. *)
  let chaff_latency = 0.02
  let chaff_prio = min_int

  let ov_prio = match App.priority with Some f -> f | None -> fun _ -> 0

  let tbl_incr tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

  let tbl_decr tbl k =
    match Hashtbl.find_opt tbl k with
    | Some n when n > 1 -> Hashtbl.replace tbl k (n - 1)
    | Some _ -> Hashtbl.remove tbl k
    | None -> ()

  let ov_depth ov de = Option.value ~default:0 (Hashtbl.find_opt ov.ov_mbox de)
  let ov_link_depth ov se de = Option.value ~default:0 (Hashtbl.find_opt ov.ov_link (se, de))

  type stats = {
    events_processed : int;
    messages_delivered : int;
    messages_dropped : int;
    messages_filtered : int;
    messages_duplicated : int;
    messages_corrupted : int;
    messages_reordered : int;
    decode_failures : int;
    decisions : int;
    lookahead_forks : int;
    wal_appends : int;
    snapshots : int;
    recoveries : int;
    torn_recoveries : int;
    amnesia_wipes : int;
    torn_writes : int;
    store_bytes_written : int;
    rel_retransmits : int;
    rel_acked : int;
    rel_dup_dropped : int;
    rel_giveups : int;
    fd_recoveries : int;
    degraded_entries : int;
    degraded_exits : int;
    sheds_mailbox : int;
    sheds_link : int;
    sheds_admission : int;
    sheds_sojourn : int;
    rel_sheds : int;
    breaker_skips : int;
    chaff_sent : int;
    max_mailbox_depth : int;
    clock_clamped : int;
        (* timer deadlines whose global preimage fell in the past (a
           forward clock step jumped over them) and were clamped to
           fire immediately instead of raising *)
    byz_emitted : int;
    byz_discarded : int;
    byz_rejected : int;
    byz_accepted : int;
  }

  type lookahead = {
    horizon : float;
    max_events : int;
    violation_penalty : float;
    max_candidates : int;
    scope :
      (Proto.Node_id.t -> (App.state, App.msg) Proto.View.t -> (App.state, App.msg) Proto.View.t)
      option;
        (* restricts what a speculative branch's objective evaluation
           may see, keyed by the deciding node — [None] = global
           knowledge; a neighbourhood restriction reproduces the
           paper's partial-information regime *)
  }

  let default_lookahead =
    { horizon = 2.0; max_events = 400; violation_penalty = 1000.; max_candidates = 8; scope = None }

  (* Hybrid fast path (paper §3.4): a bandit cache answers sites whose
     context has absorbed enough training; cache misses run the full
     lookahead, whose per-alternative scores train the cache. *)
  type cache = { bandit : Core.Bandit.t; min_pulls : int; mutable hits : int; mutable misses : int }

  type mode =
    | Plain of Core.Resolver.t
    | Predictive of lookahead * Core.Resolver.t * cache option  (* config, fallback *)
    | Replay of (int * int) list * Core.Resolver.t  (* (occurrence, index) forcings *)

  type filter = { f_name : string; drop : kind:string -> src:Proto.Node_id.t -> dst:Proto.Node_id.t -> bool }

  (* Metric handles the hot path would otherwise re-intern per event.
     Keys are raw endpoint ints; values are registry handles created on
     first use. *)
  (* The three handles every successful delivery touches, bundled so
     the hot path pays one cache lookup instead of three. *)
  type link_obs = {
    lo_node_deliveries : Obs.Registry.counter;
    lo_link_deliveries : Obs.Registry.counter;
    lo_link_latency : Obs.Registry.histogram;
  }

  type obs = {
    o_sink : Obs.Sink.t;
    o_queue_depth : Obs.Registry.gauge;
    o_deliver : (int * int, link_obs) Hashtbl.t;
    o_node_deliveries : (int, Obs.Registry.counter) Hashtbl.t;
    o_link_deliveries : (int * int, Obs.Registry.counter) Hashtbl.t;
    o_link_latency : (int * int, Obs.Registry.histogram) Hashtbl.t;
    o_drops : (string * int * int, Obs.Registry.counter) Hashtbl.t;
    o_timer_fires : (int, Obs.Registry.counter) Hashtbl.t;
    o_rel_retransmits : Obs.Registry.counter;
    o_rel_acked : Obs.Registry.counter;
    o_rel_dup_dropped : Obs.Registry.counter;
    o_rel_giveups : Obs.Registry.counter;
    o_degraded : (int * string, Obs.Registry.counter) Hashtbl.t;
    o_fd_recoveries : (int, Obs.Registry.counter) Hashtbl.t;
    o_sheds : (string, Obs.Registry.counter) Hashtbl.t;
    o_mailbox_depth : (int, Obs.Registry.gauge) Hashtbl.t;
    o_clock_clamped : Obs.Registry.counter;
    o_byz : (string, Obs.Registry.counter) Hashtbl.t;
        (* keyed by outcome (emitted/discarded/rejected/accepted);
           created lazily so byz-free runs export no new metrics *)
  }

  type pending_reward = {
    pr_site : Core.Choice.site;
    pr_chosen : int;
    pr_at : Dsim.Vtime.t;
    pr_score : float;
    pr_resolver : Core.Resolver.t;
  }

  type t = {
    mutable now : Dsim.Vtime.t;
    queue : scheduled Dsim.Heap.t;
    mutable nodes : node Proto.Node_id.Map.t;
    rng : Dsim.Rng.t;
    netem : Net.Netem.t;
    netmodel : Net.Netmodel.t;
    nm_links : (int * int, Net.Netmodel.link) Hashtbl.t;
        (* per-(src,dst) netmodel handles so each delivery does one
           lookup here instead of three inside the model; bound to
           [netmodel]'s cells, so forks get a fresh empty table *)
    fd : Net.Failure_detector.t;
    mutable fd_enabled : bool;
    mutable rel : rel option;  (* [None] = reliable delivery off (default) *)
    mutable ov : ov option;  (* [None] = unbounded queues (default) *)
    mutable cb : Net.Circuit_breaker.t;
    mutable breaker_enabled : bool;
        (* when off (default) the breaker is never consulted nor fed, so
           existing reliable-delivery runs stay byte-identical *)
    mutable clocks : (int, Dsim.Clock.t) Hashtbl.t option;
        (* per-node local clocks, keyed by node id; [None] (the
           default) = every node reads the global clock and the whole
           layer costs one option check per context — seeded runs stay
           byte-identical. Created lazily by the first clock fault. *)
    trace : Dsim.Trace.t;
    check_properties : bool;
    mutable mode : mode;
    mutable speculative : bool;
    mutable violations : (Dsim.Vtime.t * string) list;
    mutable n_violations : int;
        (* = List.length violations, maintained so lookahead forks can
           diff violation counts without O(n) walks per branch *)
    mutable violated_now : string list;  (* properties currently violated *)
    mutable filters : filter list;
    mutable decision_log : (Dsim.Vtime.t * Core.Choice.site * int) list;
    mutable event_decisions : (int * int) list;
        (* within the event being processed; newest first — only ever
           consulted through [List.assoc_opt] on unique occurrence
           numbers, so order is irrelevant and consing beats the
           quadratic append this used to do *)
    mutable event_occurrence : int;
    mutable processing : scheduled option;
    mutable spawned : Proto.Node_id.Set.t;
    mutable reward_window : float option;
    mutable pending_rewards : pending_reward list;
    kind_counts : (string, int) Hashtbl.t;
    mutable message_log : (Dsim.Vtime.t * Proto.Node_id.t * Proto.Node_id.t * string) list option;
        (* newest first when enabled; [None] = disabled (the default) *)
    mutable log_capacity : int;  (* 0 = unbounded *)
    mutable log_length : int;
    mutable stores : Store.t Proto.Node_id.Map.t;
        (* per-node durable storage, created lazily at first boot;
           empty forever when [App.durable = None] — the zero-cost path *)
    fsync_latency : float;
    disk_bandwidth : float;
    mutable n_events : int;
    mutable n_delivered : int;
    mutable n_dropped : int;
    mutable n_filtered : int;
    mutable n_duplicated : int;
    mutable n_corrupted : int;
    mutable n_decode_failures : int;
    mutable n_decisions : int;
    mutable n_forks : int;
    mutable n_wal_appends : int;
    mutable n_snapshots : int;
    mutable n_recoveries : int;
    mutable n_torn_recoveries : int;
    mutable n_amnesia_wipes : int;
    mutable n_torn_writes : int;
    mutable n_rel_retransmits : int;
    mutable n_rel_acked : int;
    mutable n_rel_dup_dropped : int;
    mutable n_rel_giveups : int;
    mutable n_sheds_mailbox : int;
    mutable n_sheds_link : int;
    mutable n_sheds_admission : int;
    mutable n_sheds_sojourn : int;
    mutable n_rel_sheds : int;
    mutable n_breaker_skips : int;
    mutable n_chaff : int;
    mutable n_fd_recoveries : int;
    mutable n_degraded_entries : int;
    mutable n_degraded_exits : int;
    mutable n_clock_clamped : int;
    mutable n_byz_emitted : int;
    mutable n_byz_discarded : int;
    mutable n_byz_rejected : int;
    mutable n_byz_accepted : int;
    mutable obs : obs option;
    mutable next_trace : int;
    mutable current_trace : int;  (** trace id of the event being processed *)
  }

  let create ?(seed = 1) ?(jitter = 0.05) ?(check_properties = true) ?(trace_capacity = 100_000)
      ?(fsync_latency = 0.0005) ?(disk_bandwidth = 50_000_000.) ~topology () =
    let rng = Dsim.Rng.create seed in
    let netem_rng = Dsim.Rng.split rng in
    {
      now = Dsim.Vtime.zero;
      queue = Dsim.Heap.create ~cmp:(fun a b -> Dsim.Vtime.compare a.at b.at);
      nodes = Proto.Node_id.Map.empty;
      rng;
      netem = Net.Netem.create ~jitter ~rng:netem_rng topology;
      netmodel = Net.Netmodel.create ();
      nm_links = Hashtbl.create 64;
      fd = Net.Failure_detector.create ();
      fd_enabled = true;
      rel = None;
      ov = None;
      cb = Net.Circuit_breaker.create ();
      breaker_enabled = false;
      clocks = None;
      trace = Dsim.Trace.create ~capacity:trace_capacity ();
      check_properties;
      mode = Plain Core.Resolver.first;
      speculative = false;
      violations = [];
      n_violations = 0;
      violated_now = [];
      filters = [];
      decision_log = [];
      event_decisions = [];
      event_occurrence = 0;
      processing = None;
      spawned = Proto.Node_id.Set.empty;
      reward_window = None;
      pending_rewards = [];
      kind_counts = Hashtbl.create 16;
      message_log = None;
      log_capacity = 0;
      log_length = 0;
      stores = Proto.Node_id.Map.empty;
      fsync_latency;
      disk_bandwidth;
      n_events = 0;
      n_delivered = 0;
      n_dropped = 0;
      n_filtered = 0;
      n_duplicated = 0;
      n_corrupted = 0;
      n_decode_failures = 0;
      n_decisions = 0;
      n_forks = 0;
      n_wal_appends = 0;
      n_snapshots = 0;
      n_recoveries = 0;
      n_torn_recoveries = 0;
      n_amnesia_wipes = 0;
      n_torn_writes = 0;
      n_rel_retransmits = 0;
      n_rel_acked = 0;
      n_rel_dup_dropped = 0;
      n_rel_giveups = 0;
      n_sheds_mailbox = 0;
      n_sheds_link = 0;
      n_sheds_admission = 0;
      n_sheds_sojourn = 0;
      n_rel_sheds = 0;
      n_breaker_skips = 0;
      n_chaff = 0;
      n_fd_recoveries = 0;
      n_degraded_entries = 0;
      n_degraded_exits = 0;
      n_clock_clamped = 0;
      n_byz_emitted = 0;
      n_byz_discarded = 0;
      n_byz_rejected = 0;
      n_byz_accepted = 0;
      obs = None;
      next_trace = 0;
      current_trace = 0;
    }

  let set_obs t sink =
    match sink with
    | None -> t.obs <- None
    | Some o_sink ->
        let reg = o_sink.Obs.Sink.registry in
        let c name = Obs.Registry.counter reg ~name ~labels:[] in
        t.obs <-
          Some
            {
              o_sink;
              o_queue_depth = Obs.Registry.gauge reg ~name:"engine_queue_depth" ~labels:[];
              o_deliver = Hashtbl.create 64;
              o_node_deliveries = Hashtbl.create 32;
              o_link_deliveries = Hashtbl.create 64;
              o_link_latency = Hashtbl.create 64;
              o_drops = Hashtbl.create 32;
              o_timer_fires = Hashtbl.create 32;
              o_rel_retransmits = c "engine_rel_retransmits";
              o_rel_acked = c "engine_rel_acked";
              o_rel_dup_dropped = c "engine_rel_dup_dropped";
              o_rel_giveups = c "engine_rel_giveups";
              o_degraded = Hashtbl.create 16;
              o_fd_recoveries = Hashtbl.create 16;
              o_sheds = Hashtbl.create 8;
              o_mailbox_depth = Hashtbl.create 16;
              o_clock_clamped = c "clock.clamped";
              o_byz = Hashtbl.create 4;
            }

  let obs_sink t = Option.map (fun o -> o.o_sink) t.obs

  let obs_handle tbl key mk =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
        let h = mk () in
        Hashtbl.add tbl key h;
        h

  let mint_trace t =
    let id = t.next_trace in
    t.next_trace <- id + 1;
    id

  let now t = t.now
  let trace t = t.trace
  let netem t = t.netem
  let netmodel t = t.netmodel
  let violations t = List.rev t.violations
  let decision_sites t = t.decision_log

  let stats t =
    {
      events_processed = t.n_events;
      messages_delivered = t.n_delivered;
      messages_dropped = t.n_dropped;
      messages_filtered = t.n_filtered;
      messages_duplicated = t.n_duplicated;
      messages_corrupted = t.n_corrupted;
      messages_reordered = Net.Netem.reorders t.netem;
      decode_failures = t.n_decode_failures;
      decisions = t.n_decisions;
      lookahead_forks = t.n_forks;
      wal_appends = t.n_wal_appends;
      snapshots = t.n_snapshots;
      recoveries = t.n_recoveries;
      torn_recoveries = t.n_torn_recoveries;
      amnesia_wipes = t.n_amnesia_wipes;
      torn_writes = t.n_torn_writes;
      store_bytes_written =
        Proto.Node_id.Map.fold (fun _ s acc -> acc + Store.bytes_written s) t.stores 0;
      rel_retransmits = t.n_rel_retransmits;
      rel_acked = t.n_rel_acked;
      rel_dup_dropped = t.n_rel_dup_dropped;
      rel_giveups = t.n_rel_giveups;
      fd_recoveries = t.n_fd_recoveries;
      degraded_entries = t.n_degraded_entries;
      degraded_exits = t.n_degraded_exits;
      sheds_mailbox = t.n_sheds_mailbox;
      sheds_link = t.n_sheds_link;
      sheds_admission = t.n_sheds_admission;
      sheds_sojourn = t.n_sheds_sojourn;
      rel_sheds = t.n_rel_sheds;
      breaker_skips = t.n_breaker_skips;
      chaff_sent = t.n_chaff;
      max_mailbox_depth = (match t.ov with None -> 0 | Some ov -> ov.ov_max_depth);
      clock_clamped = t.n_clock_clamped;
      byz_emitted = t.n_byz_emitted;
      byz_discarded = t.n_byz_discarded;
      byz_rejected = t.n_byz_rejected;
      byz_accepted = t.n_byz_accepted;
    }

  let set_resolver t r = t.mode <- Plain r

  let set_lookahead t ?(fallback = Core.Resolver.random) ?cache (cfg : lookahead) =
    if cfg.horizon <= 0. then invalid_arg "Sim.set_lookahead: horizon must be positive";
    if cfg.max_events <= 0 then invalid_arg "Sim.set_lookahead: max_events must be positive";
    if cfg.max_candidates <= 0 then invalid_arg "Sim.set_lookahead: max_candidates must be positive";
    let cache =
      Option.map
        (fun (bandit, min_pulls) ->
          if min_pulls <= 0 then invalid_arg "Sim.set_lookahead: min_pulls must be positive";
          { bandit; min_pulls; hits = 0; misses = 0 })
        cache
    in
    t.mode <- Predictive (cfg, fallback, cache)

  let resolver_name t =
    match t.mode with
    | Plain r -> r.Core.Resolver.name
    | Predictive (_, fb, None) -> "lookahead/" ^ fb.Core.Resolver.name
    | Predictive (_, fb, Some _) -> "lookahead+cache/" ^ fb.Core.Resolver.name
    | Replay (_, fb) -> "replay/" ^ fb.Core.Resolver.name

  let cache_stats t =
    match t.mode with
    | Predictive (_, _, Some c) -> Some (c.hits, c.misses)
    | Predictive (_, _, None) | Plain _ | Replay _ -> None

  let enable_reward_feedback t ~window =
    if window <= 0. then invalid_arg "Sim.enable_reward_feedback: window must be positive";
    t.reward_window <- Some window

  let failure_detector t = t.fd
  let set_fd_enabled t on = t.fd_enabled <- on

  let enable_reliable ?(config = default_reliable) ?kinds t =
    if config.base_timeout <= 0. then
      invalid_arg "Sim.enable_reliable: base_timeout must be positive";
    if config.backoff < 1. then invalid_arg "Sim.enable_reliable: backoff must be >= 1";
    if config.max_retries < 0 then invalid_arg "Sim.enable_reliable: negative max_retries";
    if config.jitter < 0. then invalid_arg "Sim.enable_reliable: negative jitter";
    if config.ack_bytes <= 0 then invalid_arg "Sim.enable_reliable: ack_bytes must be positive";
    if config.suspect_cap < 0 then invalid_arg "Sim.enable_reliable: negative suspect_cap";
    let r_kinds =
      Option.map
        (fun ks ->
          let h = Hashtbl.create 8 in
          List.iter (fun k -> Hashtbl.replace h k ()) ks;
          h)
        kinds
    in
    t.rel <-
      Some
        {
          r_cfg = config;
          r_kinds;
          r_next_seq = 0;
          r_pending = Hashtbl.create 64;
          r_seen = Hashtbl.create 256;
          r_pair = Hashtbl.create 64;
        }

  let rel_tracked r kind =
    match r.r_kinds with None -> true | Some h -> Hashtbl.mem h kind

  (* Remove a pending reliable send, keeping the per-pair count honest.
     Every removal path (ack, give-up, shed, dead sender) goes through
     here. *)
  let rel_remove (r : rel) seq (e : rel_entry) =
    Hashtbl.remove r.r_pending seq;
    tbl_decr r.r_pair (Proto.Node_id.to_int e.re_src, Proto.Node_id.to_int e.re_dst)

  (* ---------- overload API ---------- *)

  let set_overload ?(config = default_overload) t =
    if config.mailbox_capacity < 0 then
      invalid_arg "Sim.set_overload: negative mailbox_capacity";
    if config.link_capacity < 0 then invalid_arg "Sim.set_overload: negative link_capacity";
    if Float.is_nan config.service_time || config.service_time < 0. then
      invalid_arg "Sim.set_overload: service_time must be >= 0";
    if Float.is_nan config.admit_rate || config.admit_rate < 0. then
      invalid_arg "Sim.set_overload: admit_rate must be >= 0";
    if config.admit_burst <= 0 then invalid_arg "Sim.set_overload: admit_burst must be positive";
    if Float.is_nan config.sojourn_threshold || config.sojourn_threshold < 0. then
      invalid_arg "Sim.set_overload: sojourn_threshold must be >= 0";
    t.ov <-
      Some
        {
          ov_cfg = config;
          ov_live = Hashtbl.create 256;
          ov_mbox = Hashtbl.create 16;
          ov_link = Hashtbl.create 64;
          ov_by_dst = Hashtbl.create 16;
          ov_shed_set = Hashtbl.create 64;
          ov_bursts = Hashtbl.create 4;
          ov_next_did = 0;
          ov_next_gen = 0;
          ov_tokens = float_of_int config.admit_burst;
          ov_refill_at = t.now;
          ov_max_depth = 0;
        }

  let ensure_ov t =
    match t.ov with
    | Some ov -> ov
    | None ->
        set_overload t;
        Option.get t.ov

  let overload_limits t = Option.map (fun ov -> ov.ov_cfg) t.ov

  let mailbox_depth t node =
    match t.ov with None -> 0 | Some ov -> ov_depth ov (Proto.Node_id.to_int node)

  let mailbox_backlog t =
    match t.ov with
    | None -> 0
    | Some ov -> Hashtbl.fold (fun _ d acc -> Int.max d acc) ov.ov_mbox 0

  (* Queue pressure in [0,1]: depth over capacity. Identically 0 under
     unbounded mailboxes, so pressure-reactive protocol code is inert on
     default configurations. *)
  let pressure t node =
    match t.ov with
    | None -> 0.
    | Some ov ->
        let cap = ov.ov_cfg.mailbox_capacity in
        if cap <= 0 then 0.
        else
          Float.min 1.
            (float_of_int (ov_depth ov (Proto.Node_id.to_int node)) /. float_of_int cap)

  let enable_breaker ?failure_threshold ?cooldown ?half_open_probes t =
    t.cb <- Net.Circuit_breaker.create ?failure_threshold ?cooldown ?half_open_probes ();
    t.breaker_enabled <- true

  let circuit_breaker t = t.cb

  let degraded_nodes t =
    match App.degraded with
    | None -> 0
    | Some f ->
        Proto.Node_id.Map.fold
          (fun _ n acc -> if n.alive && f n.state then acc + 1 else acc)
          t.nodes 0

  let alive t id =
    match Proto.Node_id.Map.find_opt id t.nodes with Some n -> n.alive | None -> false

  let state_of t id =
    match Proto.Node_id.Map.find_opt id t.nodes with
    | Some n when n.alive -> Some n.state
    | Some _ | None -> None

  let live_nodes t =
    Proto.Node_id.Map.fold (fun id n acc -> if n.alive then (id, n.state) :: acc else acc) t.nodes []
    |> List.rev

  let inflight t =
    (* A shed-while-queued delivery is a tombstone: still in the heap,
       but no longer part of the observable world. This runs once per
       property check, so it folds over the heap's backing array
       directly (consing in a rev_fold yields [to_list]'s order)
       rather than materialising the scheduled list first, and the
       [t.ov] dispatch is hoisted out of the per-entry loop. *)
    let keep =
      match t.ov with
      | Some ov -> fun did -> did < 0 || not (Hashtbl.mem ov.ov_shed_set did)
      | None -> fun _ -> true
    in
    Dsim.Heap.rev_fold t.queue ~init:[] ~f:(fun acc s ->
        match s.ev with
        | Deliver { src; dst; msg; did; _ } when keep did -> (src, dst, msg) :: acc
        | Deliver _ | Chaff _ | Overload_tick _ | Boot _ | Timer_fire _ | Outbound _
        | Rel_ack _ | Rel_retransmit _ ->
            acc)

  let global_view t : (App.state, App.msg) Proto.View.t =
    Proto.View.v ~time:t.now ~nodes:(live_nodes t) ~inflight:(inflight t)

  (* The view property checks and lookahead scoring evaluate: the
     in-flight list is built only if something reads it, from the
     queue as it is at that moment, so the view is valid only until
     [t] next changes. *)
  let transient_view t : (App.state, App.msg) Proto.View.t =
    Proto.View.deferred ~time:t.now ~nodes:(live_nodes t) (fun () -> inflight t)

  let objective_score t = Core.Objective.total App.objectives (transient_view t)

  let delivered_of_kind t kind = Option.value ~default:0 (Hashtbl.find_opt t.kind_counts kind)

  let store t id = Proto.Node_id.Map.find_opt id t.stores

  let enable_message_log ?(capacity = 0) t =
    if capacity < 0 then invalid_arg "Sim.enable_message_log: negative capacity";
    t.log_capacity <- capacity;
    if t.message_log = None then t.message_log <- Some []

  let take n l = List.filteri (fun i _ -> i < n) l

  let message_log t =
    match t.message_log with
    | None -> []
    | Some l -> List.rev (if t.log_capacity > 0 then take t.log_capacity l else l)

  let log_message t ~src ~dst kind =
    match t.message_log with
    | None -> ()
    | Some log ->
        let log = (t.now, src, dst, kind) :: log in
        t.log_length <- t.log_length + 1;
        (* Amortised O(1) bounding: let the list run to twice the cap,
           then chop back to the [capacity] newest entries. *)
        if t.log_capacity > 0 && t.log_length >= 2 * t.log_capacity then begin
          t.message_log <- Some (take t.log_capacity log);
          t.log_length <- t.log_capacity
        end
        else t.message_log <- Some log

  let fork_with t fallback =
    {
      t with
      queue = Dsim.Heap.copy t.queue;
      kind_counts = Hashtbl.copy t.kind_counts;
      rng = Dsim.Rng.copy t.rng;
      netem = Net.Netem.copy t.netem;
      netmodel = Net.Netmodel.copy t.netmodel;
      (* the copy has its own cells; inherited handles would silently
         mutate the parent's model *)
      nm_links = Hashtbl.create 16;
      fd = Net.Failure_detector.copy t.fd;
      rel =
        Option.map
          (fun r ->
            {
              r with
              r_pending = Hashtbl.copy r.r_pending;
              r_seen = Hashtbl.copy r.r_seen;
              r_pair = Hashtbl.copy r.r_pair;
            })
          t.rel;
      ov = Option.map ov_copy t.ov;
      cb = Net.Circuit_breaker.copy t.cb;
      clocks =
        Option.map
          (fun tbl ->
            let h = Hashtbl.create (Int.max 8 (Hashtbl.length tbl)) in
            Hashtbl.iter (fun k ck -> Hashtbl.add h k (Dsim.Clock.copy ck)) tbl;
            h)
          t.clocks;
      trace = Dsim.Trace.create ~capacity:16 ();
      message_log = None;
      obs = None;
      (* speculative branches must not pollute the real world's metrics *)
      stores = Proto.Node_id.Map.map Store.copy t.stores;
      mode = Plain fallback;
      speculative = true;
      reward_window = None;
      pending_rewards = [];
    }

  let fork t =
    let fallback = match t.mode with Predictive (_, fb, _) | Replay (_, fb) -> fb | Plain _ -> Core.Resolver.random in
    fork_with t fallback

  (* ---------- scheduling ---------- *)

  let schedule t ~after ev =
    if after < 0. then invalid_arg "Sim.schedule: negative delay";
    Dsim.Heap.push t.queue { at = Dsim.Vtime.add t.now after; ev }

  let check_endpoint t id =
    let e = Proto.Node_id.to_int id in
    if e >= Net.Topology.size (Net.Netem.topology t.netem) then
      invalid_arg "Sim: node id exceeds topology size"

  let spawn t ?(after = 0.) id =
    check_endpoint t id;
    if Proto.Node_id.Set.mem id t.spawned || Proto.Node_id.Map.mem id t.nodes then
      invalid_arg "Sim.spawn: node already exists";
    t.spawned <- Proto.Node_id.Set.add id t.spawned;
    schedule t ~after (Boot id)

  let kill t id =
    match Proto.Node_id.Map.find_opt id t.nodes with
    | None -> ()
    | Some n ->
        t.nodes <- Proto.Node_id.Map.add id { n with alive = false } t.nodes;
        Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine" "%a killed"
          Proto.Node_id.pp id

  let kill_amnesia t id =
    (match Proto.Node_id.Map.find_opt id t.stores with
    | Some s ->
        Store.wipe s;
        t.n_amnesia_wipes <- t.n_amnesia_wipes + 1;
        Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"store" "%a disk wiped"
          Proto.Node_id.pp id
    | None -> ());
    kill t id

  let torn_write t id =
    (match Proto.Node_id.Map.find_opt id t.stores with
    | Some s ->
        if Store.tear s ~rng:t.rng then begin
          t.n_torn_writes <- t.n_torn_writes + 1;
          Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"store" "%a WAL tail torn"
            Proto.Node_id.pp id
        end
    | None -> ());
    kill t id

  (* Idempotent: restarting a live node is a no-op, and a stale Boot
     that fires after something else already revived the node is
     ignored (see the Boot branch of [process_scheduled]). *)
  let restart t ?(after = 0.) id =
    check_endpoint t id;
    match Proto.Node_id.Map.find_opt id t.nodes with
    | Some n when n.alive -> ()
    | Some _ | None -> schedule t ~after (Boot id)

  (* ---------- per-node clocks ---------- *)

  let clock_of t node =
    match t.clocks with
    | None -> None
    | Some tbl -> Hashtbl.find_opt tbl (Proto.Node_id.to_int node)

  (* The node's local reading of the current instant. [t.now] exactly
     while the node has no clock entry — the knobs-off fast path is one
     option check. *)
  let local_now t node =
    match clock_of t node with None -> t.now | Some ck -> Dsim.Clock.read ck ~global:t.now

  let clock_skew t node =
    match clock_of t node with None -> 0. | Some ck -> Dsim.Clock.skew ck ~global:t.now

  (* Non-identity clocks only, sorted by node: the explorer mixes these
     into world fingerprints so two worlds that differ only in clock
     state never dedup into one (timer interleavings downstream of the
     skew differ). Empty whenever the layer is off or fully healed. *)
  let clock_fingerprints t =
    match t.clocks with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun k ck acc ->
            let fp = Dsim.Clock.fingerprint ck in
            if fp = 0 then acc else (Proto.Node_id.of_int k, fp) :: acc)
          tbl []
        |> List.sort (fun (a, _) (b, _) -> Proto.Node_id.compare a b)

  let note_clock_clamped t node =
    t.n_clock_clamped <- t.n_clock_clamped + 1;
    (match t.obs with None -> () | Some o -> Obs.Registry.incr o.o_clock_clamped);
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"engine"
      "%a timer deadline clamped to now (clock jumped past it)" Proto.Node_id.pp node

  (* Global instant of a node-local deadline, clamped so it never
     precedes the engine's current instant: a forward step that jumps
     the local clock over a pending deadline makes the timer fire
     immediately (counted in [clock_clamped]) instead of crashing the
     engine with [Vtime]'s negative-delta guard. *)
  let global_of_deadline t node ck deadline =
    let g = Dsim.Clock.global_of_local ck deadline in
    if Dsim.Vtime.(g < t.now) then begin
      note_clock_clamped t node;
      t.now
    end
    else g

  let ensure_clock t node =
    let tbl =
      match t.clocks with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          t.clocks <- Some tbl;
          tbl
    in
    let key = Proto.Node_id.to_int node in
    match Hashtbl.find_opt tbl key with
    | Some ck -> ck
    | None ->
        let ck = Dsim.Clock.create () in
        Hashtbl.add tbl key ck;
        ck

  (* Pending timers carry their node-local deadline; a clock fault
     moves the global instants those deadlines map to, so rebuild this
     node's timer entries. Draining and re-pushing in ascending order
     preserves the FIFO tie-break among untouched events. Clock events
     are rare, so the O(n log n) rebuild never taxes the hot path. *)
  let reanchor_timers t node ck =
    let entries = Dsim.Heap.drain t.queue in
    List.iter
      (fun s ->
        match s.ev with
        | Timer_fire f when Proto.Node_id.equal f.node node ->
            Dsim.Heap.push t.queue { s with at = global_of_deadline t node ck f.deadline }
        | _ -> Dsim.Heap.push t.queue s)
      entries

  let set_clock_rate t node ~rate =
    check_endpoint t node;
    if not (Float.is_finite rate && rate > 0.) then
      invalid_arg "Sim.set_clock_rate: rate must be positive and finite";
    let ck = ensure_clock t node in
    Dsim.Clock.set_rate ck ~global:t.now ~rate;
    reanchor_timers t node ck;
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine" "%a clock rate x%g"
      Proto.Node_id.pp node rate

  let clock_step t node ~offset =
    check_endpoint t node;
    if not (Float.is_finite offset) then invalid_arg "Sim.clock_step: offset not finite";
    let ck = ensure_clock t node in
    Dsim.Clock.step ck ~global:t.now ~offset;
    reanchor_timers t node ck;
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine" "%a clock step %+gs"
      Proto.Node_id.pp node offset

  (* Snap the node back onto the global clock. The entry is removed —
     an identity clock and no clock are indistinguishable, and keeping
     the table minimal keeps [clock_fingerprints] clean. Idempotent. *)
  let heal_clock t node =
    match t.clocks with
    | None -> ()
    | Some tbl -> (
        let key = Proto.Node_id.to_int node in
        match Hashtbl.find_opt tbl key with
        | None -> ()
        | Some ck ->
            Dsim.Clock.heal ck ~global:t.now;
            Hashtbl.remove tbl key;
            reanchor_timers t node ck;
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine"
              "%a clock healed" Proto.Node_id.pp node)

  (* Start an overload burst at [node]: [rate] synthetic arrivals per
     second converge on its mailbox until [heal_overload]. Creates the
     overload layer in its tracking-only default configuration if none
     was set, so depth gauges and pressure work even without bounds.
     Draws no randomness — chaff timing is fully deterministic. *)
  let overload t ?(rate = 200.) node =
    check_endpoint t node;
    if Float.is_nan rate || rate <= 0. then invalid_arg "Sim.overload: rate must be positive";
    let ov = ensure_ov t in
    let de = Proto.Node_id.to_int node in
    let gen = ov.ov_next_gen in
    ov.ov_next_gen <- gen + 1;
    Hashtbl.replace ov.ov_bursts de (gen, rate);
    schedule t ~after:0. (Overload_tick { dst = node; gen });
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine"
      "%a overload burst started (%.0f/s)" Proto.Node_id.pp node rate

  (* Stop the burst; a stale generator tick dies when it fires. Chaff
     already queued drains normally. Idempotent. *)
  let heal_overload t node =
    match t.ov with
    | None -> ()
    | Some ov ->
        let de = Proto.Node_id.to_int node in
        if Hashtbl.mem ov.ov_bursts de then begin
          Hashtbl.remove ov.ov_bursts de;
          Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine"
            "%a overload burst healed" Proto.Node_id.pp node
        end

  (* Garbles a wire encoding: each byte has one bit flipped with
     probability [flip]; if the dice spare every byte, one byte is
     forced — a [Corrupt] verdict always yields a genuinely altered
     payload. *)
  let garble t ~flip s =
    let b = Bytes.of_string s in
    let len = Bytes.length b in
    let flipped = ref false in
    let flip_at i =
      let bit = 1 lsl Dsim.Rng.int t.rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
      flipped := true
    in
    for i = 0 to len - 1 do
      if Dsim.Rng.uniform t.rng < flip then flip_at i
    done;
    if (not !flipped) && len > 0 then flip_at (Dsim.Rng.int t.rng len);
    Bytes.to_string b

  let nm_link t ~se ~de =
    let key = (se, de) in
    match Hashtbl.find_opt t.nm_links key with
    | Some l -> l
    | None ->
        let l = Net.Netmodel.link t.netmodel ~src:se ~dst:de in
        Hashtbl.replace t.nm_links key l;
        l

  let drop t ~src ~dst ~cause pp_payload =
    let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
    t.n_dropped <- t.n_dropped + 1;
    Net.Netmodel.observe_link_loss t.netmodel (nm_link t ~se ~de) t.now ~delivered:false;
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"net" "drop(%s) %a->%a %t" cause
      Proto.Node_id.pp src Proto.Node_id.pp dst pp_payload

  let root_cause cause =
    match String.index_opt cause ':' with
    | Some i -> String.sub cause 0 i
    | None -> cause

  let obs_drop o ~cause ~se ~de =
    Obs.Registry.incr
      (obs_handle o.o_drops (cause, se, de) (fun () ->
           Obs.Registry.counter o.o_sink.Obs.Sink.registry ~name:"engine_drops"
             ~labels:
               [ ("cause", cause); ("src", string_of_int se); ("dst", string_of_int de) ]))

  let note_byz t outcome =
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.incr
          (obs_handle o.o_byz outcome (fun () ->
               Obs.Registry.counter o.o_sink.Obs.Sink.registry ~name:"engine_byz"
                 ~labels:[ ("outcome", outcome) ]))

  (* Edge-detect the app's self-reported degraded mode across a state
     transition. Counted per incident (enter/exit), not per event spent
     inside the mode; [None] before a first boot counts as healthy. *)
  let note_degraded t node ~prev ~next =
    match App.degraded with
    | None -> ()
    | Some f ->
        let was = match prev with Some s -> f s | None -> false in
        let is_now = f next in
        if was <> is_now then begin
          let dir = if is_now then "enter" else "exit" in
          if is_now then t.n_degraded_entries <- t.n_degraded_entries + 1
          else t.n_degraded_exits <- t.n_degraded_exits + 1;
          (match t.obs with
          | None -> ()
          | Some o ->
              let ni = Proto.Node_id.to_int node in
              Obs.Registry.incr
                (obs_handle o.o_degraded (ni, dir) (fun () ->
                     Obs.Registry.counter o.o_sink.Obs.Sink.registry
                       ~name:"engine_degraded_transitions"
                       ~labels:[ ("node", string_of_int ni); ("dir", dir) ])));
          Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine"
            "%a %s degraded mode" Proto.Node_id.pp node
            (if is_now then "entered" else "exited")
        end

  (* Retransmission timeout for a send on its [tries]-th retry:
     exponential backoff, plus a random spread so a burst of sends lost
     to one partition does not retransmit in lockstep. The draw happens
     only when reliable delivery is enabled — disabled, the engine's
     RNG stream is untouched. *)
  let rel_timeout t (r : rel) ~tries =
    let base = r.r_cfg.base_timeout *. (r.r_cfg.backoff ** float_of_int tries) in
    if r.r_cfg.jitter > 0. then base *. (1. +. (r.r_cfg.jitter *. Dsim.Rng.uniform t.rng))
    else base

  (* ---------- overload machinery ---------- *)

  let shed_cause_label = function
    | `Mailbox -> "mailbox"
    | `Link -> "link"
    | `Admission -> "admission"
    | `Sojourn -> "sojourn"
    | `Rel -> "rel"
    | `Breaker -> "breaker"

  let note_shed t ~cause ~se ~de =
    (match cause with
    | `Mailbox -> t.n_sheds_mailbox <- t.n_sheds_mailbox + 1
    | `Link -> t.n_sheds_link <- t.n_sheds_link + 1
    | `Admission -> t.n_sheds_admission <- t.n_sheds_admission + 1
    | `Sojourn -> t.n_sheds_sojourn <- t.n_sheds_sojourn + 1
    | `Rel -> t.n_rel_sheds <- t.n_rel_sheds + 1
    | `Breaker -> t.n_breaker_skips <- t.n_breaker_skips + 1);
    let label = shed_cause_label cause in
    (match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.incr
          (obs_handle o.o_sheds label (fun () ->
               Obs.Registry.counter o.o_sink.Obs.Sink.registry ~name:"engine_sheds"
                 ~labels:[ ("cause", label) ])));
    Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"engine" "shed(%s) %d->%d" label
      se de

  let ov_set_depth_gauge t ov de =
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.set
          (obs_handle o.o_mailbox_depth de (fun () ->
               Obs.Registry.gauge o.o_sink.Obs.Sink.registry ~name:"engine_mailbox_depth"
                 ~labels:[ ("node", string_of_int de) ]))
          (float_of_int (ov_depth ov de))

  (* Victim search over the destination's queue, newest-first list: the
     last live element is the oldest, so a plain replace-on-match fold
     finds the oldest ([by_prio:false]) or the oldest among the
     lowest-priority entries ([by_prio:true]). The list is compacted of
     dead dids on the way — sheds only happen at capacity, so the O(n)
     walk is bounded by the configured capacity. *)
  let ov_scan_victim ov ~de ~restrict_src ~by_prio =
    match Hashtbl.find_opt ov.ov_by_dst de with
    | None -> None
    | Some l ->
        (* Compaction and victim selection share one pass: the filter
           visits dids left-to-right exactly as the old separate scan
           did, so replace-on-match picks the same victim. *)
        let best = ref None in
        l :=
          List.filter
            (fun did ->
              match Hashtbl.find_opt ov.ov_live did with
              | None -> false
              | Some e ->
                  let considered =
                    match restrict_src with None -> true | Some s -> e.oe_src = s
                  in
                  (if considered then
                     match !best with
                     | None -> best := Some (did, e)
                     | Some (_, b) ->
                         if (not by_prio) || e.oe_prio <= b.oe_prio then best := Some (did, e));
                  true)
            !l;
        !best

  let ov_tombstone t ov did (v : ov_entry) ~cause =
    Hashtbl.remove ov.ov_live did;
    tbl_decr ov.ov_mbox v.oe_dst;
    tbl_decr ov.ov_link (v.oe_src, v.oe_dst);
    Hashtbl.replace ov.ov_shed_set did ();
    ov_set_depth_gauge t ov v.oe_dst;
    note_shed t ~cause ~se:v.oe_src ~de:v.oe_dst

  (* Enforce one bound: true = the incoming message may be enqueued
     (possibly after evicting a queued victim), false = it was shed. *)
  let ov_check_bound t ov ~se ~de ~prio ~cap ~depth ~restrict_src ~cause =
    if cap <= 0 || depth < cap then true
    else
      match ov.ov_cfg.shed with
      | Drop_newest ->
          note_shed t ~cause ~se ~de;
          false
      | Drop_oldest -> (
          match ov_scan_victim ov ~de ~restrict_src ~by_prio:false with
          | Some (did, v) ->
              ov_tombstone t ov did v ~cause;
              true
          | None ->
              note_shed t ~cause ~se ~de;
              false)
      | By_priority -> (
          match ov_scan_victim ov ~de ~restrict_src ~by_prio:true with
          | Some (did, v) when v.oe_prio <= prio ->
              ov_tombstone t ov did v ~cause;
              true
          | Some _ | None ->
              (* everything queued outranks the newcomer *)
              note_shed t ~cause ~se ~de;
              false)

  let ov_make_room t ov ~se ~de ~prio =
    ov_check_bound t ov ~se ~de ~prio ~cap:ov.ov_cfg.link_capacity
      ~depth:(ov_link_depth ov se de) ~restrict_src:(Some se) ~cause:`Link
    && ov_check_bound t ov ~se ~de ~prio ~cap:ov.ov_cfg.mailbox_capacity
         ~depth:(ov_depth ov de) ~restrict_src:None ~cause:`Mailbox

  let ov_register t ov ~se ~de ~prio =
    let did = ov.ov_next_did in
    ov.ov_next_did <- did + 1;
    Hashtbl.replace ov.ov_live did { oe_src = se; oe_dst = de; oe_prio = prio; oe_at = t.now };
    tbl_incr ov.ov_mbox de;
    tbl_incr ov.ov_link (se, de);
    (match Hashtbl.find_opt ov.ov_by_dst de with
    | Some l -> l := did :: !l
    | None -> Hashtbl.add ov.ov_by_dst de (ref [ did ]));
    let depth = ov_depth ov de in
    if depth > ov.ov_max_depth then ov.ov_max_depth <- depth;
    ov_set_depth_gauge t ov de;
    did

  (* A queued arrival reached its Deliver (or Chaff) event: release the
     bookkeeping. Returns false when the message was shed while queued —
     the event is then a tombstone and must not touch the node. *)
  let ov_note_processed t ov did =
    if Hashtbl.mem ov.ov_shed_set did then begin
      Hashtbl.remove ov.ov_shed_set did;
      false
    end
    else begin
      (match Hashtbl.find_opt ov.ov_live did with
      | Some e ->
          Hashtbl.remove ov.ov_live did;
          tbl_decr ov.ov_mbox e.oe_dst;
          tbl_decr ov.ov_link (e.oe_src, e.oe_dst);
          ov_set_depth_gauge t ov e.oe_dst
      | None -> ());
      true
    end

  let ov_oldest_age ov ~de now =
    match Hashtbl.find_opt ov.ov_by_dst de with
    | None -> 0.
    | Some l ->
        let oldest =
          List.fold_left
            (fun acc did ->
              match Hashtbl.find_opt ov.ov_live did with Some e -> Some e | None -> acc)
            None !l
        in
        (* Clamped: an observation taken against an instant that
           precedes the arrival (reordered observation, backwards local
           reading) must report "just arrived", not a negative age that
           defeats the sojourn gate. *)
        (match oldest with None -> 0. | Some e -> Float.max 0. (Dsim.Vtime.diff now e.oe_at))

  (* Admission control at the inject boundary: a deterministic token
     bucket, then the CoDel-style sojourn gate — refuse new work while
     the destination's oldest queued message has already waited longer
     than the threshold, shedding *before* the queue saturates. *)
  let admit t ~src ~dst =
    match t.ov with
    | None -> true
    | Some ov ->
        let cfg = ov.ov_cfg in
        let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
        let rate_ok =
          if cfg.admit_rate <= 0. then true
          else begin
            (* Clamped at the source: a negative elapsed (the refill
               anchor somehow ahead of now) must not mint tokens. *)
            let dt = Float.max 0. (Dsim.Vtime.diff t.now ov.ov_refill_at) in
            if dt > 0. then begin
              ov.ov_tokens <-
                Float.min
                  (float_of_int cfg.admit_burst)
                  (ov.ov_tokens +. (dt *. cfg.admit_rate));
              ov.ov_refill_at <- t.now
            end;
            if ov.ov_tokens >= 1. then begin
              ov.ov_tokens <- ov.ov_tokens -. 1.;
              true
            end
            else false
          end
        in
        if not rate_ok then begin
          note_shed t ~cause:`Admission ~se ~de;
          false
        end
        else if
          cfg.sojourn_threshold > 0. && ov_oldest_age ov ~de t.now > cfg.sojourn_threshold
        then begin
          note_shed t ~cause:`Sojourn ~se ~de;
          false
        end
        else true

  (* Every Deliver push funnels through here. Unbounded (the default):
     one option check, then exactly the historical push. Bounded: the
     arrival must clear the link and mailbox bounds, takes a queue
     ticket, and pays the backlog's service delay — the model that
     makes deep queues cost latency, which a discrete-event delivery
     otherwise would not. *)
  let push_deliver t ?(byz = false) ~src ~dst ~sent_at ~trace ~rel ~delay msg =
    match t.ov with
    | None ->
        Dsim.Heap.push t.queue
          {
            at = Dsim.Vtime.add t.now delay;
            ev = Deliver { src; dst; msg; sent_at; trace; rel; did = -1; byz };
          }
    | Some ov ->
        let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
        let prio = ov_prio msg in
        if ov_make_room t ov ~se ~de ~prio then begin
          let extra = float_of_int (ov_depth ov de) *. ov.ov_cfg.service_time in
          let did = ov_register t ov ~se ~de ~prio in
          Dsim.Heap.push t.queue
            {
              at = Dsim.Vtime.add t.now (delay +. extra);
              ev = Deliver { src; dst; msg; sent_at; trace; rel; did; byz };
            }
        end

  let transmit t ~src ~dst ~rel msg =
    let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
    let trace = t.current_trace in
    let now_s = Dsim.Vtime.to_seconds t.now in
    let span verdict ~deliver_at =
      match t.obs with
      | None -> ()
      | Some o ->
          Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de
            ~kind:(App.msg_kind msg) ~enqueue:now_s ~deliver:deliver_at ~verdict
    in
    let deliver delay = push_deliver t ~src ~dst ~sent_at:t.now ~trace ~rel ~delay msg in
    let pp_msg out = App.pp_msg out msg in
    let dropped cause =
      drop t ~src ~dst ~cause pp_msg;
      match t.obs with
      | None -> ()
      | Some o ->
          let cause = root_cause cause in
          obs_drop o ~cause ~se ~de;
          span ("drop:" ^ cause) ~deliver_at:now_s
    in
    (* A reorder verdict is invisible in [judge]'s return value — it
       only inflates the delivery delay and bumps the netem counter, so
       detect it by the counter's delta. *)
    let reorders0 = Net.Netem.reorders t.netem in
    match
      Net.Netem.judge t.netem ~now:now_s ~src:se ~dst:de ~bytes:(App.msg_bytes msg)
    with
    | Net.Netem.Drop cause -> dropped cause
    | Net.Netem.Deliver delay ->
        deliver delay;
        let verdict = if Net.Netem.reorders t.netem > reorders0 then "reorder" else "deliver" in
        span verdict ~deliver_at:(now_s +. delay)
    | Net.Netem.Duplicate delays ->
        (* Count the extra copies while scheduling them — one walk of
           [delays], not a [List.length] plus a [List.iter]. *)
        List.iteri (fun i d -> (if i > 0 then t.n_duplicated <- t.n_duplicated + 1); deliver d) delays;
        if t.obs <> None then begin
          let reordered = Net.Netem.reorders t.netem > reorders0 in
          List.iteri
            (fun i d ->
              let verdict =
                if i > 0 then "duplicate" else if reordered then "reorder" else "deliver"
              in
              span verdict ~deliver_at:(now_s +. d))
            delays
        end
    | Net.Netem.Corrupt { delay; flip } -> (
        t.n_corrupted <- t.n_corrupted + 1;
        (* The fault acts on the wire form: encode, flip bytes, try to
           decode what a receiver would see. A decode failure surfaces
           as a drop (and is counted); a flip that still parses is
           caught by the transport checksum every real deployment runs
           under, so it too surfaces as a drop — handlers never see a
           garbled payload, and nothing escapes the engine. *)
        match App.msg_codec with
        | None -> dropped "corrupt"
        | Some codec -> (
            ignore delay;
            let garbled = garble t ~flip (Wire.Codec.encode codec msg) in
            match Wire.Codec.decode codec garbled with
            | Error e | (exception Wire.Codec.Malformed e) ->
                t.n_decode_failures <- t.n_decode_failures + 1;
                dropped ("corrupt: " ^ e)
            | Ok _ -> dropped "corrupt: checksum mismatch"))
    | Net.Netem.Mutate delay -> (
        match App.msg_codec with
        | None ->
            (* No wire form to mutate — the message sails through clean. *)
            deliver delay;
            span "deliver" ~deliver_at:(now_s +. delay)
        | Some codec -> (
            let node_ids =
              List.init (Net.Topology.size (Net.Netem.topology t.netem)) Fun.id
            in
            match
              Wire.Mutator.mutate ~rng:t.rng ~node_ids codec (Wire.Codec.encode codec msg)
            with
            | Some (mutant, _bytes) ->
                (* The mutant decodes cleanly by construction — it is
                   delivered as a well-formed message and flagged so the
                   receive side can attribute the validator's verdict. *)
                t.n_byz_emitted <- t.n_byz_emitted + 1;
                note_byz t "emitted";
                push_deliver t ~byz:true ~src ~dst ~sent_at:t.now ~trace ~rel ~delay mutant;
                span "mutate" ~deliver_at:(now_s +. delay)
            | None ->
                (* No candidate survived the re-decode guarantee:
                   counted, and the original travels unharmed — a
                   mutation fault never degenerates into loss. *)
                t.n_byz_discarded <- t.n_byz_discarded + 1;
                note_byz t "discarded";
                deliver delay;
                span "deliver" ~deliver_at:(now_s +. delay)))

  (* A send: when reliable delivery covers this message kind, register
     it as pending and arm the first retransmit timer before handing the
     payload to Netem — the tracking must survive whatever verdict the
     network passes. *)
  let route t ~src ~dst msg =
    let rel =
      match t.rel with
      | Some r when rel_tracked r (App.msg_kind msg) ->
          let seq = r.r_next_seq in
          r.r_next_seq <- seq + 1;
          Hashtbl.replace r.r_pending seq
            { re_src = src; re_dst = dst; re_msg = msg; re_tries = 0 };
          tbl_incr r.r_pair (Proto.Node_id.to_int src, Proto.Node_id.to_int dst);
          schedule t ~after:(rel_timeout t r ~tries:0)
            (Rel_retransmit { seq; trace = t.current_trace });
          Some seq
      | Some _ | None -> None
    in
    transmit t ~src ~dst ~rel msg

  (* The ack crosses the same emulated network as the payload — judged
     for loss, latency and duplication — so a partition that eats the
     payload's direction or the reverse one breaks the handshake
     realistically. A lost ack is recovered by the retransmit timer and
     absorbed by the receiver's seen-set. *)
  let send_ack t ~receiver ~sender ~seq =
    match t.rel with
    | None -> ()
    | Some r -> (
        let se = Proto.Node_id.to_int receiver and de = Proto.Node_id.to_int sender in
        let push delay =
          Dsim.Heap.push t.queue
            { at = Dsim.Vtime.add t.now delay; ev = Rel_ack { seq; trace = t.current_trace } }
        in
        match
          Net.Netem.judge t.netem ~now:(Dsim.Vtime.to_seconds t.now) ~src:se ~dst:de
            ~bytes:r.r_cfg.ack_bytes
        with
        | Net.Netem.Drop _ -> ()
        | Net.Netem.Deliver delay -> push delay
        | Net.Netem.Duplicate delays -> List.iter push delays
        | Net.Netem.Corrupt _ -> ()
        (* An ack carries no application payload to mutate; it arrives
           intact. *)
        | Net.Netem.Mutate delay -> push delay)

  let inject t ?(after = 0.) ~src ~dst msg =
    (* same guard (and message) the pre-overload [schedule] path gave *)
    if after < 0. then invalid_arg "Sim.schedule: negative delay";
    check_endpoint t src;
    check_endpoint t dst;
    (* An injection is a root send: it starts a fresh causal chain. It
       is also the admission boundary — the token bucket and the
       sojourn gate shed offered load here, before it costs anything. *)
    t.current_trace <- mint_trace t;
    if admit t ~src ~dst then
      if after = 0. then route t ~src ~dst msg
      else
        push_deliver t ~src ~dst ~sent_at:t.now ~trace:t.current_trace ~rel:None ~delay:after
          msg

  let add_filter t ~name drop = t.filters <- { f_name = name; drop } :: t.filters
  let clear_filters t = t.filters <- []

  (* ---------- choice resolution ---------- *)

  (* Lookahead: for each candidate, fork the simulation, replay the
     in-flight event with that branch forced (and all earlier choices of
     the same event pinned to what was actually decided), run the fork
     [horizon] seconds, and score the resulting view. *)
  let rec predict_branch t (cfg : lookahead) fallback ~node sched ~forced =
    let f = fork_with t fallback in
    f.mode <- Replay (forced, fallback);
    t.n_forks <- t.n_forks + 1;
    let before_violations = f.n_violations in
    process_scheduled f sched;
    f.mode <- Plain fallback;
    run_budgeted f ~until:(Dsim.Vtime.add t.now cfg.horizon) ~budget:cfg.max_events;
    let fresh_violations = f.n_violations - before_violations in
    let view =
      match cfg.scope with None -> transient_view f | Some scope -> scope node (transient_view f)
    in
    Core.Objective.total App.objectives view
    -. (cfg.violation_penalty *. float_of_int fresh_violations)

  and resolve_index : type a. t -> Proto.Node_id.t -> a Core.Choice.t -> int =
   fun t node choice ->
    let occurrence = t.event_occurrence in
    t.event_occurrence <- occurrence + 1;
    let site = Core.Choice.site ~node:(Proto.Node_id.to_int node) ~occurrence choice in
    let arity = site.Core.Choice.site_arity in
    let index =
      match t.mode with
      | Plain r -> r.Core.Resolver.choose t.rng site
      | Replay (forced, fb) -> (
          match List.assoc_opt occurrence forced with
          | Some i -> min i (arity - 1)
          | None -> fb.Core.Resolver.choose t.rng site)
      | Predictive (cfg, fb, cache) -> (
          match t.processing with
          | None -> fb.Core.Resolver.choose t.rng site
          | Some sched ->
              if arity = 1 then 0
              else begin
                let cached =
                  match cache with
                  | Some c
                    when Core.Bandit.context_pulls c.bandit site >= c.min_pulls * arity ->
                      c.hits <- c.hits + 1;
                      Some (Core.Bandit.select c.bandit t.rng site)
                  | Some c ->
                      c.misses <- c.misses + 1;
                      None
                  | None -> None
                in
                match cached with
                | Some i -> i
                | None ->
                    let n = min arity cfg.max_candidates in
                    let prior = t.event_decisions in
                    let scores =
                      Array.init n (fun i ->
                          predict_branch t cfg fb ~node sched
                            ~forced:((occurrence, i) :: prior))
                    in
                    let best_score = Array.fold_left Float.max neg_infinity scores in
                    (* Train the cache with normalised predicted scores so
                       a later hit reproduces the lookahead's ranking. *)
                    (match cache with
                    | Some c ->
                        let worst = Array.fold_left Float.min infinity scores in
                        let span = Float.max 1e-9 (best_score -. worst) in
                        Array.iteri
                          (fun i s ->
                            Core.Bandit.update c.bandit site ~arm:i
                              ~reward:((s -. worst) /. span))
                          scores
                    | None -> ());
                    (* Ties are broken randomly: deterministic index-0 bias
                       would make every node steer the same way and
                       unbalance the system. *)
                    let eps = 1e-9 *. (1. +. Float.abs best_score) in
                    let tied = ref [] in
                    for i = n - 1 downto 0 do
                      if scores.(i) >= best_score -. eps then tied := i :: !tied
                    done;
                    Dsim.Rng.pick t.rng !tied
              end)
    in
    let index =
      if index < 0 || index >= arity then
        invalid_arg
          (Printf.sprintf "Sim: resolver answered %d for arity %d at %s" index arity
             site.Core.Choice.site_label)
      else index
    in
    t.event_decisions <- (occurrence, index) :: t.event_decisions;
    t.n_decisions <- t.n_decisions + 1;
    if not t.speculative then begin
      t.decision_log <- (t.now, site, index) :: t.decision_log;
      match (t.reward_window, t.mode) with
      | Some _, Plain r ->
          t.pending_rewards <-
            { pr_site = site; pr_chosen = index; pr_at = t.now; pr_score = objective_score t; pr_resolver = r }
            :: t.pending_rewards
      | _ -> ()
    end;
    index

  and make_ctx t node : Proto.Ctx.t =
    {
      self = node;
      (* node-local: a skewed node's handlers see their own clock, so
         every ctx-driven timeout comparison (failure-detector
         suspicion, breaker cooldown, app timestamps) runs in the
         node's frame of reference *)
      now = local_now t node;
      rng = t.rng;
      net = t.netmodel;
      fd = t.fd;
      cb = t.cb;
      pressure = (fun () -> pressure t node);
      choose =
        (fun choice ->
          let i = resolve_index t node choice in
          Core.Choice.nth choice i);
    }

  (* ---------- actions ---------- *)

  and perform_action t node actions =
    List.iter
      (fun action ->
        match action with
        | Proto.Action.Send { dst; msg } -> route t ~src:node ~dst msg
        | Proto.Action.Set_timer { id; after } -> (
            let n = Proto.Node_id.Map.find node t.nodes in
            let gen = 1 + Option.value ~default:0 (Smap.find_opt id n.timer_gens) in
            t.nodes <-
              Proto.Node_id.Map.add node { n with timer_gens = Smap.add id gen n.timer_gens } t.nodes;
            (* same guard (and message) [schedule] gives *)
            if after < 0. then invalid_arg "Sim.schedule: negative delay";
            match clock_of t node with
            | None ->
                let at = Dsim.Vtime.add t.now after in
                Dsim.Heap.push t.queue
                  { at; ev = Timer_fire { node; id; gen; deadline = at; trace = t.current_trace } }
            | Some ck ->
                (* [after] is a duration on the node's own clock: the
                   deadline lives in local time and its global fire
                   instant follows from the clock's current segment — a
                   fast clock fires early in global time. *)
                let deadline = Dsim.Vtime.add (Dsim.Clock.read ck ~global:t.now) after in
                let at = global_of_deadline t node ck deadline in
                Dsim.Heap.push t.queue
                  { at; ev = Timer_fire { node; id; gen; deadline; trace = t.current_trace } })
        | Proto.Action.Cancel_timer id ->
            let n = Proto.Node_id.Map.find node t.nodes in
            let gen = 1 + Option.value ~default:0 (Smap.find_opt id n.timer_gens) in
            t.nodes <-
              Proto.Node_id.Map.add node { n with timer_gens = Smap.add id gen n.timer_gens } t.nodes
        | Proto.Action.Note s ->
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:App.name "%a: %s"
              Proto.Node_id.pp node s)
      actions

  (* Send actions that must wait for a durable write leave through a
     deferred [Outbound] event; everything else (timers, notes) is
     internal to the node and applies immediately. [delay = 0] is the
     fast path — no event, no reordering, bit-identical to a world
     without the persistence layer. *)
  and defer_sends t node ~delay actions =
    if delay <= 0. then perform_action t node actions
    else begin
      let sends, internal =
        List.partition (function Proto.Action.Send _ -> true | _ -> false) actions
      in
      perform_action t node internal;
      match sends with
      | [] -> ()
      | _ ->
          let incarnation = (Proto.Node_id.Map.find node t.nodes).incarnation in
          schedule t ~after:delay
            (Outbound { node; incarnation; actions = sends; trace = t.current_trace })
    end

  and store_of t node =
    match Proto.Node_id.Map.find_opt node t.stores with
    | Some s -> s
    | None ->
        let s = Store.create ~fsync_latency:t.fsync_latency ~bandwidth:t.disk_bandwidth () in
        t.stores <- Proto.Node_id.Map.add node s t.stores;
        s

  (* Compaction charges the snapshot's exact size now and encodes it
     only if a recovery reads it: states are immutable, so the deferred
     bytes are the ones an eager encode would have written, and every
     disk delay (hence the event stream) is unchanged. *)
  and install_snapshot store ~now (d : (App.state, App.msg) Proto.Durability.t) st =
    Store.install_snapshot store ~now ~bytes:(Wire.Codec.size d.codec st) (fun () ->
        Wire.Codec.encode d.codec st)

  (* Write-ahead step for one transition: ask the app what (if
     anything) this transition must persist, append it, and return the
     disk's completion delay so the caller can withhold the sends. *)
  and persist t node ~prev ~next (d : (App.state, App.msg) Proto.Durability.t) =
    match d.log ~prev ~next with
    | None -> 0.
    | Some record ->
        let store = store_of t node in
        let now = Dsim.Vtime.to_seconds t.now in
        let delay = Store.append store ~now record in
        t.n_wal_appends <- t.n_wal_appends + 1;
        if Store.wal_entries store >= d.snapshot_every then begin
          (* Compaction queues behind the append on the same disk, so
             its completion delay subsumes the append's. *)
          let delay' = install_snapshot store ~now d next in
          t.n_snapshots <- t.n_snapshots + 1;
          Float.max delay delay'
        end
        else delay

  and apply_handler_result t node (state, actions) =
    match Proto.Node_id.Map.find_opt node t.nodes with
    | None -> perform_action t node actions
    | Some n ->
        note_degraded t node ~prev:(Some n.state) ~next:state;
        let delay =
          match App.durable with
          | None -> 0.
          | Some d -> persist t node ~prev:n.state ~next:state d
        in
        t.nodes <- Proto.Node_id.Map.add node { n with state } t.nodes;
        defer_sends t node ~delay actions

  (* Recovery (never raises — see {!Proto.Durability}): decode the
     snapshot, fold every complete WAL record through [replay]
     (stopping at the first failure), merge into the boot state, and
     compact the result into a fresh snapshot. An empty store seeds an
     initial snapshot; an unreadable one degrades to amnesia. *)
  and recover t id (d : (App.state, App.msg) Proto.Durability.t) boot =
    let store = store_of t id in
    let now = Dsim.Vtime.to_seconds t.now in
    let seed_snapshot st =
      let delay = install_snapshot store ~now d st in
      t.n_snapshots <- t.n_snapshots + 1;
      delay
    in
    if Store.is_empty store then (boot, seed_snapshot boot)
    else begin
      let { Store.snapshot; entries; torn } = Store.read store in
      if torn then begin
        t.n_torn_recoveries <- t.n_torn_recoveries + 1;
        Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"store"
          "%a recovery dropped a torn WAL tail" Proto.Node_id.pp id
      end;
      let durable =
        match snapshot with
        | None -> None
        | Some s -> (
            match Wire.Codec.decode d.codec s with
            | Ok st ->
                let rec fold st = function
                  | [] -> st
                  | r :: rest -> (
                      match d.replay st r with
                      | Ok st' -> fold st' rest
                      | Error _ | (exception _) -> st)
                in
                Some (fold st entries)
            | Error _ | (exception _) -> None)
      in
      match durable with
      | None ->
          (* Snapshot unreadable: the disk is worthless, fall back to
             amnesia rather than poison the application. *)
          Store.wipe store;
          (boot, seed_snapshot boot)
      | Some durable ->
          let state = d.restore ~boot ~durable in
          t.n_recoveries <- t.n_recoveries + 1;
          Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"store"
            "%a recovered (%d WAL records)" Proto.Node_id.pp id (List.length entries);
          (state, seed_snapshot state)
    end

  (* ---------- event processing ---------- *)

  and process_scheduled t sched =
    t.now <- Dsim.Vtime.max t.now sched.at;
    t.n_events <- t.n_events + 1;
    t.event_occurrence <- 0;
    let saved_decisions = t.event_decisions in
    t.event_decisions <- [];
    let saved_processing = t.processing in
    t.processing <- Some sched;
    (* Everything a handler does while this event is in flight — sends,
       timers, deferred outbound batches — inherits its trace id. *)
    (match sched.ev with
    | Boot _ -> t.current_trace <- mint_trace t
    | Chaff _ | Overload_tick _ -> t.current_trace <- mint_trace t
    | Deliver { trace; _ }
    | Timer_fire { trace; _ }
    | Outbound { trace; _ }
    | Rel_ack { trace; _ }
    | Rel_retransmit { trace; _ } ->
        t.current_trace <- trace);
    (match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.set o.o_queue_depth (float_of_int (Dsim.Heap.length t.queue)));
    (match sched.ev with
    | Boot id -> (
        match Proto.Node_id.Map.find_opt id t.nodes with
        | Some n when n.alive ->
            (* A stale Boot — something else already revived the node
               since this restart was scheduled. Idempotence says the
               later revival is a no-op. *)
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"engine"
              "%a already alive, ignoring boot" Proto.Node_id.pp id
        | prev ->
            let ctx = make_ctx t id in
            let boot, actions = App.init ctx in
            (* Bump every inherited timer generation so timers armed by a
               previous incarnation of this node can no longer fire, while
               generations the new incarnation hands out stay distinct from
               the old ones. *)
            let timer_gens =
              match prev with
              | Some p -> Smap.map (fun g -> g + 1) p.timer_gens
              | None -> Smap.empty
            in
            let incarnation = match prev with Some p -> p.incarnation + 1 | None -> 0 in
            let state, delay =
              match App.durable with None -> (boot, 0.) | Some d -> recover t id d boot
            in
            note_degraded t id ~prev:(Option.map (fun (p : node) -> p.state) prev) ~next:state;
            t.nodes <- Proto.Node_id.Map.add id { state; alive = true; timer_gens; incarnation } t.nodes;
            defer_sends t id ~delay actions;
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"engine" "%a booted"
              Proto.Node_id.pp id)
    | Deliver { src; dst; msg; sent_at; trace; rel; did; byz } -> (
        let shed_in_queue =
          match t.ov with
          | Some ov when did >= 0 -> not (ov_note_processed t ov did)
          | Some _ | None -> false
        in
        if shed_in_queue then
          (* Evicted from a bounded queue while in flight — counted (by
             cause) at shed time; the node never sees it. *)
          Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"engine"
            "delivery shed while queued %a->%a" Proto.Node_id.pp src Proto.Node_id.pp dst
        else
        match Proto.Node_id.Map.find_opt dst t.nodes with
        | Some n when n.alive ->
            let kind = App.msg_kind msg in
            if List.exists (fun f -> f.drop ~kind ~src ~dst) t.filters then begin
              t.n_filtered <- t.n_filtered + 1;
              (match t.obs with
              | None -> ()
              | Some o ->
                  let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
                  obs_drop o ~cause:"filtered" ~se ~de;
                  Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de ~kind
                    ~enqueue:(Dsim.Vtime.to_seconds sent_at)
                    ~deliver:(Dsim.Vtime.to_seconds t.now) ~verdict:"drop:filtered");
              Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"steering"
                "filtered %s %a->%a" kind Proto.Node_id.pp src Proto.Node_id.pp dst
            end
            else begin
              let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
              (* Passive heartbeat: every arrival is evidence the sender
                 is up, feeding the phi-accrual detector. Pure
                 arithmetic — no RNG, no events — so benign runs are
                 bit-identical with the detector on or off. Stamped with
                 the observer's local reading: a drifting destination
                 mis-measures heartbeat intervals exactly as a real
                 skewed box would. *)
              (if t.fd_enabled then
                 let recovered =
                   Net.Failure_detector.heartbeat t.fd ~observer:de ~peer:se
                     ~now:(local_now t dst)
                 in
                 if recovered then begin
                   t.n_fd_recoveries <- t.n_fd_recoveries + 1;
                   match t.obs with
                   | None -> ()
                   | Some o ->
                       Obs.Registry.incr
                         (obs_handle o.o_fd_recoveries de (fun () ->
                              Obs.Registry.counter o.o_sink.Obs.Sink.registry
                                ~name:"engine_fd_recoveries"
                                ~labels:[ ("node", string_of_int de) ]))
                 end);
              let dup =
                match (rel, t.rel) with
                | Some seq, Some r ->
                    if Hashtbl.mem r.r_seen seq then true
                    else begin
                      Hashtbl.replace r.r_seen seq ();
                      false
                    end
                | (Some _ | None), _ -> false
              in
              (* Ack every tracked arrival, duplicates included — the
                 sender may have missed the first ack. *)
              (match (rel, t.rel) with
              | Some seq, Some _ -> send_ack t ~receiver:dst ~sender:src ~seq
              | (Some _ | None), _ -> ());
              if dup then begin
                (* A retransmission (or Netem duplicate) of a payload
                   already handled: acked above, but the app must not
                   see it twice. *)
                t.n_rel_dup_dropped <- t.n_rel_dup_dropped + 1;
                (match t.obs with
                | None -> ()
                | Some o -> Obs.Registry.incr o.o_rel_dup_dropped);
                Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"net"
                  "rel dedup %s %a->%a" kind Proto.Node_id.pp src Proto.Node_id.pp dst
              end
              else
              (* Application-level admission: the validator sees every
                 delivery (it must accept all honest traffic, so clean
                 runs are unchanged); a rejection is a drop, attributed
                 to the byzantine layer when the payload was a mutant.
                 Pure — consumes no randomness either way. *)
              match
                match App.validate with Some check -> check msg | None -> Ok ()
              with
              | Error reason ->
                  if byz then begin
                    t.n_byz_rejected <- t.n_byz_rejected + 1;
                    note_byz t "rejected"
                  end;
                  drop t ~src ~dst ~cause:("invalid: " ^ reason) (fun out -> App.pp_msg out msg);
                  (match t.obs with
                  | None -> ()
                  | Some o ->
                      obs_drop o ~cause:"invalid" ~se ~de;
                      Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de ~kind
                        ~enqueue:(Dsim.Vtime.to_seconds sent_at)
                        ~deliver:(Dsim.Vtime.to_seconds t.now) ~verdict:"drop:invalid")
              | Ok () -> begin
              if byz then begin
                t.n_byz_accepted <- t.n_byz_accepted + 1;
                note_byz t "accepted"
              end;
              let latency = Dsim.Vtime.diff t.now sent_at in
              let nml = nm_link t ~se ~de in
              Net.Netmodel.observe_link_latency t.netmodel nml t.now latency;
              Net.Netmodel.observe_link_loss t.netmodel nml t.now ~delivered:true;
              if latency > 0. then
                Net.Netmodel.observe_link_bandwidth t.netmodel nml t.now
                  (float_of_int (App.msg_bytes msg) /. latency);
              t.n_delivered <- t.n_delivered + 1;
              Hashtbl.replace t.kind_counts kind (1 + Option.value ~default:0 (Hashtbl.find_opt t.kind_counts kind));
              log_message t ~src ~dst kind;
              (match t.obs with
              | None -> ()
              | Some o ->
                  let lh =
                    obs_handle o.o_deliver (se, de) (fun () ->
                        let reg = o.o_sink.Obs.Sink.registry in
                        {
                          lo_node_deliveries =
                            obs_handle o.o_node_deliveries de (fun () ->
                                Obs.Registry.counter reg ~name:"engine_deliveries"
                                  ~labels:[ ("node", string_of_int de) ]);
                          lo_link_deliveries =
                            obs_handle o.o_link_deliveries (se, de) (fun () ->
                                Obs.Registry.counter reg ~name:"engine_link_deliveries"
                                  ~labels:
                                    [ ("src", string_of_int se); ("dst", string_of_int de) ]);
                          lo_link_latency =
                            obs_handle o.o_link_latency (se, de) (fun () ->
                                Obs.Registry.histogram reg ~name:"engine_delivery_latency_ms"
                                  ~labels:
                                    [ ("src", string_of_int se); ("dst", string_of_int de) ]
                                  ~lo:0. ~hi:2000. ~buckets:20);
                        })
                  in
                  Obs.Registry.incr lh.lo_node_deliveries;
                  Obs.Registry.incr lh.lo_link_deliveries;
                  Obs.Registry.observe lh.lo_link_latency (latency *. 1000.));
              let applicable = Proto.Handler.applicable App.receive n.state ~src msg in
              match applicable with
              | [] ->
                  Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:App.name
                    "%a: no handler for %a" Proto.Node_id.pp dst App.pp_msg msg
              | [ h ] ->
                  let ctx = make_ctx t dst in
                  apply_handler_result t dst (h.handle ctx n.state ~src msg)
              | several ->
                  (* NFA ambiguity: which handler runs is itself a choice. *)
                  let ctx = make_ctx t dst in
                  let choice =
                    Core.Choice.make ~label:("handler:" ^ kind)
                      (List.map
                         (fun (h : _ Proto.Handler.t) -> Core.Choice.alt ~describe:h.name h)
                         several)
                  in
                  let h = ctx.choose choice in
                  apply_handler_result t dst (h.handle ctx n.state ~src msg)
              end
            end
        | Some _ | None ->
            t.n_dropped <- t.n_dropped + 1;
            (match t.obs with
            | None -> ()
            | Some o ->
                let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
                obs_drop o ~cause:"dead" ~se ~de;
                Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de
                  ~kind:(App.msg_kind msg) ~enqueue:(Dsim.Vtime.to_seconds sent_at)
                  ~deliver:(Dsim.Vtime.to_seconds t.now) ~verdict:"drop:dead");
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Debug ~component:"engine"
              "%a dead, dropping %a" Proto.Node_id.pp dst App.pp_msg msg)
    | Timer_fire { node; id; gen; deadline = _; trace } -> (
        match Proto.Node_id.Map.find_opt node t.nodes with
        | Some n when n.alive && Smap.find_opt id n.timer_gens = Some gen ->
            (match t.obs with
            | None -> ()
            | Some o ->
                let ni = Proto.Node_id.to_int node in
                Obs.Registry.incr
                  (obs_handle o.o_timer_fires ni (fun () ->
                       Obs.Registry.counter o.o_sink.Obs.Sink.registry
                         ~name:"engine_timer_fires" ~labels:[ ("node", string_of_int ni) ]));
                let at = Dsim.Vtime.to_seconds t.now in
                Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:ni ~dst:ni
                  ~kind:("timer:" ^ id) ~enqueue:at ~deliver:at ~verdict:"fire");
            let ctx = make_ctx t node in
            apply_handler_result t node (App.on_timer ctx n.state id)
        | Some _ | None -> ())
    | Outbound { node; incarnation; actions; trace = _ } -> (
        match Proto.Node_id.Map.find_opt node t.nodes with
        | Some n when n.alive && n.incarnation = incarnation -> perform_action t node actions
        | Some _ | None ->
            (* The node crashed (or was reborn) before its write
               completed: the withheld messages were never sent. *)
            ())
    | Rel_ack { seq; trace = _ } -> (
        match t.rel with
        | None -> ()
        | Some r -> (
            match Hashtbl.find_opt r.r_pending seq with
            | None -> ()
            | Some e ->
                rel_remove r seq e;
                t.n_rel_acked <- t.n_rel_acked + 1;
                (* an ack is the strongest health evidence the sending
                   side gets: it closes the breaker toward the pair *)
                if t.breaker_enabled then
                  Net.Circuit_breaker.record_success t.cb
                    ~src:(Proto.Node_id.to_int e.re_src) ~dst:(Proto.Node_id.to_int e.re_dst);
                (match t.obs with None -> () | Some o -> Obs.Registry.incr o.o_rel_acked)))
    | Rel_retransmit { seq; trace = _ } -> (
        match t.rel with
        | None -> ()
        | Some r -> (
            match Hashtbl.find_opt r.r_pending seq with
            | None -> ()  (* acked in the meantime: the common case *)
            | Some e -> (
                match Proto.Node_id.Map.find_opt e.re_src t.nodes with
                | Some n when n.alive ->
                    let se = Proto.Node_id.to_int e.re_src
                    and de = Proto.Node_id.to_int e.re_dst in
                    (* The sender is the observer here: its suspicion
                       levels and breaker cooldowns are judged on its
                       own clock. *)
                    let lnow = local_now t e.re_src in
                    let suspected_dst () =
                      t.fd_enabled
                      && Net.Failure_detector.suspected t.fd ~observer:se ~peer:de ~now:lnow
                    in
                    (* Bounded retransmit queue toward a suspected peer:
                       past the cap, shed instead of growing without
                       limit — the peer is silent, every pending send
                       is already being retried, and the app is told
                       through the same synthetic-timer channel as
                       give-ups so it can react. *)
                    if
                      r.r_cfg.suspect_cap > 0
                      && Option.value ~default:0 (Hashtbl.find_opt r.r_pair (se, de))
                         > r.r_cfg.suspect_cap
                      && suspected_dst ()
                    then begin
                      rel_remove r seq e;
                      note_shed t ~cause:`Rel ~se ~de;
                      Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"net"
                        "rel shed %s %a->%a (suspected peer, %d pending)"
                        (App.msg_kind e.re_msg) Proto.Node_id.pp e.re_src Proto.Node_id.pp
                        e.re_dst
                        (Option.value ~default:0 (Hashtbl.find_opt r.r_pair (se, de)));
                      let ctx = make_ctx t e.re_src in
                      apply_handler_result t e.re_src
                        (App.on_timer ctx n.state ("rel.shed:" ^ App.msg_kind e.re_msg))
                    end
                    else begin
                      (* The timeout itself is failure evidence; the
                         detector's word upgrades it to an instant trip. *)
                      (if t.breaker_enabled then begin
                         Net.Circuit_breaker.record_failure t.cb ~src:se ~dst:de ~now:lnow;
                         if suspected_dst () then
                           Net.Circuit_breaker.trip t.cb ~src:se ~dst:de ~now:lnow
                       end);
                      (* Adaptive retry budget: halve it while the
                         breaker refuses the pair or the sender's own
                         mailbox is under pressure; it recovers to the
                         full budget the moment the breaker closes. *)
                      let budget =
                        if
                          t.breaker_enabled
                          && (not (Net.Circuit_breaker.allow t.cb ~src:se ~dst:de ~now:lnow)
                             || pressure t e.re_src >= 0.5)
                        then Int.max 1 (r.r_cfg.max_retries / 2)
                        else r.r_cfg.max_retries
                      in
                      if e.re_tries >= budget then begin
                        (* Retry budget exhausted: stop, and tell the
                           sending app through a synthetic timer id so it
                           can react (or ignore it — the default catch-all
                           timer arm makes the notification opt-in). *)
                        rel_remove r seq e;
                        t.n_rel_giveups <- t.n_rel_giveups + 1;
                        (match t.obs with
                        | None -> ()
                        | Some o -> Obs.Registry.incr o.o_rel_giveups);
                        Dsim.Trace.logf t.trace t.now Dsim.Trace.Info ~component:"net"
                          "rel give-up %s %a->%a after %d retries"
                          (App.msg_kind e.re_msg) Proto.Node_id.pp e.re_src Proto.Node_id.pp
                          e.re_dst e.re_tries;
                        let ctx = make_ctx t e.re_src in
                        apply_handler_result t e.re_src
                          (App.on_timer ctx n.state ("rel.giveup:" ^ App.msg_kind e.re_msg))
                      end
                      else begin
                        let e = { e with re_tries = e.re_tries + 1 } in
                        Hashtbl.replace r.r_pending seq e;
                        (* Consult the breaker before putting bytes on
                           the wire. A refused attempt still re-arms the
                           timer, so the pending entry resolves one way
                           or the other (ack of an earlier copy, a probe
                           getting through, or give-up). *)
                        if
                          (not t.breaker_enabled)
                          || Net.Circuit_breaker.acquire t.cb ~src:se ~dst:de ~now:lnow
                        then begin
                          t.n_rel_retransmits <- t.n_rel_retransmits + 1;
                          (match t.obs with
                          | None -> ()
                          | Some o -> Obs.Registry.incr o.o_rel_retransmits);
                          transmit t ~src:e.re_src ~dst:e.re_dst ~rel:(Some seq) e.re_msg
                        end
                        else note_shed t ~cause:`Breaker ~se ~de;
                        schedule t ~after:(rel_timeout t r ~tries:e.re_tries)
                          (Rel_retransmit { seq; trace = t.current_trace })
                      end
                    end
                | Some _ | None ->
                    (* Sender died with the send outstanding — nobody is
                       left to retransmit. *)
                    rel_remove r seq e)))
    | Overload_tick { dst; gen } -> (
        match t.ov with
        | None -> ()
        | Some ov -> (
            let de = Proto.Node_id.to_int dst in
            match Hashtbl.find_opt ov.ov_bursts de with
            | Some (g, rate) when g = gen ->
                t.n_chaff <- t.n_chaff + 1;
                (* chaff source -1: a fictitious external client, so it
                   never pollutes a real link's accounting *)
                (if ov_make_room t ov ~se:(-1) ~de ~prio:chaff_prio then begin
                   let extra = float_of_int (ov_depth ov de) *. ov.ov_cfg.service_time in
                   let did = ov_register t ov ~se:(-1) ~de ~prio:chaff_prio in
                   Dsim.Heap.push t.queue
                     { at = Dsim.Vtime.add t.now (chaff_latency +. extra); ev = Chaff { dst; did } }
                 end);
                schedule t ~after:(1. /. rate) (Overload_tick { dst; gen })
            | Some _ | None -> ()  (* healed, or superseded by a newer burst *)))
    | Chaff { dst = _; did } -> (
        match t.ov with
        | None -> ()
        | Some ov -> ignore (ov_note_processed t ov did)));
    t.processing <- saved_processing;
    t.event_decisions <- saved_decisions;
    if t.check_properties then begin
      let view = transient_view t in
      let now_violated =
        List.map (fun (p : _ Core.Property.t) -> p.name) (Core.Property.check App.properties view)
      in
      (* Edge-detect: one recorded violation per incident, not one per
         event while the bad state persists. *)
      List.iter
        (fun name ->
          if not (List.mem name t.violated_now) then begin
            t.violations <- (t.now, name) :: t.violations;
            t.n_violations <- t.n_violations + 1;
            Dsim.Trace.logf t.trace t.now Dsim.Trace.Error ~component:"property" "violated: %s"
              name
          end)
        now_violated;
      t.violated_now <- now_violated
    end;
    if not t.speculative then settle_rewards t

  and settle_rewards t =
    match t.reward_window with
    | None -> ()
    | Some window ->
        let due, waiting =
          List.partition (fun pr -> Dsim.Vtime.diff t.now pr.pr_at >= window) t.pending_rewards
        in
        t.pending_rewards <- waiting;
        (match due with
        | [] -> ()
        | _ :: _ ->
            let score_now = objective_score t in
            List.iter
              (fun pr ->
                pr.pr_resolver.Core.Resolver.feedback ~site:pr.pr_site ~chosen:pr.pr_chosen
                  ~reward:(score_now -. pr.pr_score))
              due)

  and run_budgeted t ~until ~budget =
    let remaining = ref budget in
    let continue = ref true in
    while !continue && !remaining > 0 do
      match Dsim.Heap.peek t.queue with
      | Some sched when Dsim.Vtime.(sched.at <= until) ->
          ignore (Dsim.Heap.pop t.queue);
          process_scheduled t sched;
          decr remaining
      | Some _ | None -> continue := false
    done;
    if Dsim.Vtime.(t.now < until) then t.now <- until

  let step t =
    match Dsim.Heap.pop t.queue with
    | None -> false
    | Some sched ->
        process_scheduled t sched;
        true

  let run_until t until = run_budgeted t ~until ~budget:max_int
  let run_for t dt = run_until t (Dsim.Vtime.add t.now dt)

  let run_until_quiescent ?(max_events = 1_000_000) t =
    let remaining = ref max_events in
    let continue = ref true in
    while !continue && !remaining > 0 do
      if not (step t) then continue := false else decr remaining
    done
end
