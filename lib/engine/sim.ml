module Make (App : Proto.App_intf.APP) = struct
  module Smap = Map.Make (String)
  module Stbl = Hashtbl.Make (String)

  type node = { state : App.state; alive : bool; incarnation : int }

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
            (* reliable-delivery sequence number when the send is tracked;
               shared by every retransmission and Netem duplicate of the
               same logical send, so the receiver can dedup both with one
               seen-set *)
        did : int;
            (* queue ticket from the overload layer, so a message shed while
               queued is skipped when its Deliver fires. -1 = untracked (the
               layer is off — zero bookkeeping) *)
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

  type reliable_config = Reliable.config

  let default_reliable = Reliable.default

  type overload_config = Overload.config

  let default_overload = Overload.default

  (* The engine's one counter store. [messages_reordered],
     [store_bytes_written] and [max_mailbox_depth] belong to Netem, the
     disks and the overload layer; {!stats} reads them in. *)
  type stats = Counters.t

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
     Keys are raw endpoint ints, or [src * endpoints + dst] for a
     directed pair; values are registry handles created on first use. *)
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
    (* Handles are made on first use, which fixes the export's series
       order; the hot ones sit in endpoint-indexed arrays and rows, so
       finding one hashes nothing. *)
    o_deliver : link_obs option Net.Pair_rows.t;
    mutable o_drops : (string * Obs.Registry.counter option Net.Pair_rows.t) list;
        (* per root cause, rows [src], columns [dst] *)
    o_timer_fires : Obs.Registry.counter option array;
    o_degraded : Obs.Registry.counter option array;  (* [2 * node], + 1 for exits *)
    o_fd_recoveries : Obs.Registry.counter option array;
    o_mailbox_depth : Obs.Registry.gauge option array;
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
    queue : ev Dsim.Event_queue.t;  (* keyed by the global fire instant, in seconds *)
    mutable nodes : node Proto.Node_id.Map.t;
    mutable live : (Proto.Node_id.t * App.state) list;
    mutable live_of : node Proto.Node_id.Map.t;
        (* [live] is the live nodes of [live_of]; a handler result
           patches it in place, and anything else that changes [nodes]
           (boot, kill, restart) leaves it to be rebuilt *)
    rng : Dsim.Rng.t;
    endpoints : int;  (* topology size; directed pairs key as [src * endpoints + dst] *)
    netem : Net.Netem.t;
    netmodel : Net.Netmodel.t;
    fd : Net.Failure_detector.t;
    mutable fd_enabled : bool;
    mutable rel : App.msg Reliable.t option;  (* [None] = reliable delivery off (default) *)
    mutable ov : Overload.t option;  (* [None] = unbounded queues (default) *)
    cb : Net.Circuit_breaker.t;
    mutable breaker_enabled : bool;
        (* when off (default) the breaker is never consulted nor fed, so
           existing reliable-delivery runs stay byte-identical *)
    clocks : Clocks.t;
    ctxs : Proto.Ctx.t option array;
        (* one handler context per endpoint, built on its node's first
           handler call; a fork starts empty, since the closures capture
           the engine *)
    timer_gens : int Smap.t array;
        (* per endpoint, each timer id's current generation: a
           [Timer_fire] of an older one is stale *)
    check_properties : bool;
    mutable trackers : (App.state, App.msg) Proto.View.t Core.Property.tracker array;
        (* one per safety property, in list order, started at the first
           check; empty until then *)
    mutable mode : mode;
    mutable speculative : bool;
    mutable violations : (Dsim.Vtime.t * string) list;
    mutable violation_count : int;
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
    mutable processing : ev option;  (* the event being processed, for lookahead to replay *)
    mutable spawned : Proto.Node_id.Set.t;
    mutable reward_window : float option;
    mutable pending_rewards : pending_reward list;
    kind_counts : int ref Stbl.t;  (* deliveries per message kind *)
    mutable message_log : (Dsim.Vtime.t * Proto.Node_id.t * Proto.Node_id.t * string) list option;
        (* newest first when enabled; [None] = disabled (the default) *)
    disks : Disks.t;
        (* per-node durable storage, created lazily at first boot;
           empty forever when [App.durable = None] — the zero-cost path *)
    stats : stats;
    mutable obs : obs option;
    mutable next_trace : int;
    mutable current_trace : int;  (** trace id of the event being processed *)
  }

  let create ?(seed = 1) ?(jitter = 0.05) ?(check_properties = true) ~topology () =
    let rng = Dsim.Rng.create seed in
    let netem_rng = Dsim.Rng.split rng in
    let endpoints = Net.Topology.size topology in
    {
      now = Dsim.Vtime.zero;
      queue = Dsim.Event_queue.create ();
      nodes = Proto.Node_id.Map.empty;
      live = [];
      live_of = Proto.Node_id.Map.empty;
      rng;
      endpoints;
      netem = Net.Netem.create ~jitter ~rng:netem_rng topology;
      netmodel = Net.Netmodel.create ();
      fd = Net.Failure_detector.create ();
      fd_enabled = true;
      rel = None;
      ov = None;
      cb = Net.Circuit_breaker.create ();
      breaker_enabled = false;
      clocks = Clocks.create ();
      ctxs = Array.make endpoints None;
      timer_gens = Array.make endpoints Smap.empty;
      check_properties;
      trackers = [||];
      mode = Plain Core.Resolver.first;
      speculative = false;
      violations = [];
      violation_count = 0;
      violated_now = [];
      filters = [];
      decision_log = [];
      event_decisions = [];
      event_occurrence = 0;
      processing = None;
      spawned = Proto.Node_id.Set.empty;
      reward_window = None;
      pending_rewards = [];
      kind_counts = Stbl.create 16;
      message_log = None;
      disks = Disks.create ();
      stats = Counters.zero ();
      obs = None;
      next_trace = 0;
      current_trace = 0;
    }

  (* A fresh copy, so a caller can diff two snapshots. *)
  let stats t =
    {
      t.stats with
      messages_reordered = Net.Netem.reorders t.netem;
      store_bytes_written = Disks.bytes_written t.disks;
      max_mailbox_depth = (match t.ov with None -> 0 | Some ov -> Overload.max_depth ov);
    }

  let set_obs t sink =
    t.obs <-
      Option.map
        (fun o_sink ->
          let reg = o_sink.Obs.Sink.registry in
          List.iter
            (fun (name, read) ->
              Obs.Registry.probe reg ~name:("engine_" ^ name) ~labels:[] (fun () -> read (stats t)))
            Counters.fields;
          {
            o_sink;
            o_queue_depth = Obs.Registry.gauge reg ~name:"engine_queue_depth" ~labels:[];
            o_deliver = Net.Pair_rows.create ~absent:None;
            o_drops = [];
            o_timer_fires = Array.make t.endpoints None;
            o_degraded = Array.make (2 * t.endpoints) None;
            o_fd_recoveries = Array.make t.endpoints None;
            o_mailbox_depth = Array.make t.endpoints None;
          })
        sink

  let obs_node_counter o handles ~name ni =
    Obs.Registry.incr
      (match handles.(ni) with
      | Some c -> c
      | None ->
          let c =
            Obs.Registry.counter o.o_sink.Obs.Sink.registry ~name
              ~labels:[ ("node", string_of_int ni) ]
          in
          handles.(ni) <- Some c;
          c)

  let rec drop_rows cause = function
    | [] -> raise Not_found
    | (c, rows) :: rest -> if String.equal c cause then rows else drop_rows cause rest

  (* The drop counter of [cause] on the directed pair [se -> de]. *)
  let obs_drop o ~cause ~se ~de =
    let rows =
      match drop_rows cause o.o_drops with
      | rows -> rows
      | exception Not_found ->
          let rows = Net.Pair_rows.create ~absent:None in
          o.o_drops <- (cause, rows) :: o.o_drops;
          rows
    in
    match Net.Pair_rows.find rows se de with
    | Some c -> c
    | None ->
        let c =
          Obs.Registry.counter o.o_sink.Obs.Sink.registry ~name:"engine_drops"
            ~labels:[ ("cause", cause); ("src", string_of_int se); ("dst", string_of_int de) ]
        in
        Net.Pair_rows.set rows se de (Some c);
        c

  (* The delivery handles of the directed pair [se -> de]. *)
  let obs_link o ~se ~de =
    match Net.Pair_rows.find o.o_deliver se de with
    | Some h -> h
    | None ->
        let reg = o.o_sink.Obs.Sink.registry in
        let link = [ ("src", string_of_int se); ("dst", string_of_int de) ] in
        let h =
          {
            lo_node_deliveries =
              Obs.Registry.counter reg ~name:"engine_deliveries" ~labels:[ ("node", string_of_int de) ];
            lo_link_deliveries = Obs.Registry.counter reg ~name:"engine_link_deliveries" ~labels:link;
            lo_link_latency =
              Obs.Registry.histogram reg ~name:"engine_delivery_latency_ms" ~labels:link ~lo:0.
                ~hi:2000. ~buckets:20;
          }
        in
        Net.Pair_rows.set o.o_deliver se de (Some h);
        h

  let mint_trace t =
    let id = t.next_trace in
    t.next_trace <- id + 1;
    id

  let now t = t.now
  let netem t = t.netem
  let netmodel t = t.netmodel
  let violations t = List.rev t.violations
  let decision_sites t = t.decision_log
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
  let enable_reliable ?(config = default_reliable) t = t.rel <- Some (Reliable.create config)

  (* ---------- overload API ---------- *)

  let set_overload ?(config = default_overload) t = t.ov <- Some (Overload.create config)

  let overload_limits t = Option.map Overload.config t.ov

  let mailbox_depth t node =
    match t.ov with None -> 0 | Some ov -> Overload.depth ov (Proto.Node_id.to_int node)

  let mailbox_backlog t = match t.ov with None -> 0 | Some ov -> Overload.backlog ov

  (* Queue pressure in [0,1]: depth over capacity. Identically 0 under
     unbounded mailboxes, so pressure-reactive protocol code is inert on
     default configurations. *)
  let pressure t node =
    match t.ov with None -> 0. | Some ov -> Overload.pressure ov (Proto.Node_id.to_int node)

  let enable_breaker t = t.breaker_enabled <- true

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

  (* Every event builds a property view, but most (acks, drops, timer
     arming, stale timers) leave [t.nodes] untouched: the list is
     rebuilt only when the map changed. *)
  let live_nodes t =
    if t.live_of != t.nodes then begin
      t.live <-
        Proto.Node_id.Map.fold
          (fun id n acc -> if n.alive then (id, n.state) :: acc else acc)
          t.nodes []
        |> List.rev;
      t.live_of <- t.nodes
    end;
    t.live

  (* Every write to [t.nodes] tells the safety trackers its node. *)
  let touch t id =
    let e = Proto.Node_id.to_int id in
    for i = 0 to Array.length t.trackers - 1 do
      t.trackers.(i).Core.Property.touch e
    done

  (* [live] with [id]'s state replaced; the entries after it are shared. *)
  let rec replace_live id state = function
    | [] -> []
    | ((id', _) as entry) :: rest ->
        if Proto.Node_id.equal id id' then (id, state) :: rest
        else entry :: replace_live id state rest

  let inflight t =
    (* A shed-while-queued delivery is a tombstone: still in the heap,
       but no longer part of the observable world. This runs once per
       property check, so it folds over the queue's backing array
       directly (consing in a rev_fold yields the array's order)
       rather than materialising the scheduled list first, and the
       [t.ov] dispatch is hoisted out of the per-entry loop. *)
    let keep =
      match t.ov with
      | Some ov -> fun did -> not (Overload.is_shed ov did)
      | None -> fun _ -> true
    in
    Dsim.Event_queue.rev_fold t.queue ~init:[] ~f:(fun acc ev ->
        match ev with
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

  let delivered_of_kind t kind =
    match Stbl.find t.kind_counts kind with r -> !r | exception Not_found -> 0

  let store t id = Disks.find t.disks id

  let enable_message_log t = if t.message_log = None then t.message_log <- Some []
  let message_log t = match t.message_log with None -> [] | Some l -> List.rev l

  let log_message t ~src ~dst kind =
    match t.message_log with
    | None -> ()
    | Some log -> t.message_log <- Some ((t.now, src, dst, kind) :: log)

  let fork_with t fallback =
    {
      t with
      queue = Dsim.Event_queue.copy t.queue;
      kind_counts =
        (let c = Stbl.copy t.kind_counts in
         Stbl.filter_map_inplace (fun _ r -> Some (ref !r)) c;
         c);
      rng = Dsim.Rng.copy t.rng;
      netem = Net.Netem.copy t.netem;
      netmodel = Net.Netmodel.copy t.netmodel;
      fd = Net.Failure_detector.copy t.fd;
      rel = Option.map Reliable.copy t.rel;
      ov = Option.map Overload.copy t.ov;
      cb = Net.Circuit_breaker.copy t.cb;
      clocks = Clocks.copy t.clocks;
      ctxs = Array.make t.endpoints None;
      timer_gens = Array.copy t.timer_gens;
      trackers = Array.map (fun (tr : _ Core.Property.tracker) -> tr.copy ()) t.trackers;
      stats = stats t;
      message_log = None;
      obs = None;
      (* speculative branches must not pollute the real world's metrics *)
      disks = Disks.copy t.disks;
      mode = Plain fallback;
      speculative = true;
      reward_window = None;
      pending_rewards = [];
    }

  let fork t =
    let fallback = match t.mode with Predictive (_, fb, _) | Replay (_, fb) -> fb | Plain _ -> Core.Resolver.random in
    fork_with t fallback

  (* ---------- scheduling ---------- *)

  let push_at t at ev = Dsim.Event_queue.push t.queue (Dsim.Vtime.to_seconds at) ev

  let schedule t ~after ev =
    if after < 0. then invalid_arg "Sim.schedule: negative delay";
    push_at t (Dsim.Vtime.add t.now after) ev

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
        touch t id

  let kill_amnesia t id =
    (match Disks.find t.disks id with
    | Some s ->
        Store.wipe s;
        t.stats.amnesia_wipes <- t.stats.amnesia_wipes + 1
    | None -> ());
    kill t id

  let torn_write t id =
    (match Disks.find t.disks id with
    | Some s ->
        if Store.tear s ~rng:t.rng then t.stats.torn_writes <- t.stats.torn_writes + 1
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

  (* The node's local reading of the current instant. [t.now] exactly
     while the node has no clock entry. *)
  let local_now t node = Clocks.read t.clocks node ~global:t.now
  let clock_skew t node = Clocks.skew t.clocks node ~global:t.now

  (* Non-identity clocks only, sorted by node: the explorer mixes these
     into world fingerprints so two worlds that differ only in clock
     state never dedup into one (timer interleavings downstream of the
     skew differ). Empty whenever the layer is off or fully healed. *)
  let clock_fingerprints t = Clocks.fingerprints t.clocks

  (* Global instant of a node-local deadline, clamped so it never
     precedes the engine's current instant: a forward step that jumps
     the local clock over a pending deadline makes the timer fire
     immediately (counted in [clock_clamped]) instead of crashing the
     engine with [Vtime]'s negative-delta guard. *)
  let global_of_deadline t ck deadline =
    let g = Dsim.Clock.global_of_local ck deadline in
    if Dsim.Vtime.(g < t.now) then begin
      t.stats.clock_clamped <- t.stats.clock_clamped + 1;
      t.now
    end
    else g

  (* Pending timers carry their node-local deadline; a clock fault
     moves the global instants those deadlines map to, so rebuild this
     node's timer entries. Draining and re-pushing in ascending order
     preserves the FIFO tie-break among untouched events. Clock events
     are rare, so the O(n log n) rebuild never taxes the hot path. *)
  let reanchor_timers t node ck =
    let entries = Dsim.Event_queue.drain t.queue in
    List.iter
      (fun (at, ev) ->
        match ev with
        | Timer_fire f when Proto.Node_id.equal f.node node ->
            push_at t (global_of_deadline t ck f.deadline) ev
        | _ -> Dsim.Event_queue.push t.queue at ev)
      entries

  let set_clock_rate t node ~rate =
    check_endpoint t node;
    if not (Float.is_finite rate && rate > 0.) then
      invalid_arg "Sim.set_clock_rate: rate must be positive and finite";
    reanchor_timers t node (Clocks.set_rate t.clocks node ~global:t.now ~rate)

  let clock_step t node ~offset =
    check_endpoint t node;
    if not (Float.is_finite offset) then invalid_arg "Sim.clock_step: offset not finite";
    reanchor_timers t node (Clocks.step t.clocks node ~global:t.now ~offset)

  let heal_clock t node =
    match Clocks.heal t.clocks node ~global:t.now with
    | None -> ()
    | Some ck -> reanchor_timers t node ck

  (* Start an overload burst at [node]: [rate] synthetic arrivals per
     second converge on its mailbox until [heal_overload]. Creates the
     overload layer in its tracking-only default configuration if none
     was set, so depth gauges and pressure work even without bounds.
     Draws no randomness — chaff timing is fully deterministic. *)
  let overload t ?(rate = 200.) node =
    check_endpoint t node;
    if Float.is_nan rate || rate <= 0. then invalid_arg "Sim.overload: rate must be positive";
    if Option.is_none t.ov then set_overload t;
    let gen = Overload.start_burst (Option.get t.ov) (Proto.Node_id.to_int node) ~rate in
    schedule t ~after:0. (Overload_tick { dst = node; gen })

  (* Stop the burst; a stale generator tick dies when it fires. Chaff
     already queued drains normally. Idempotent. *)
  let heal_overload t node =
    match t.ov with
    | Some ov -> Overload.stop_burst ov (Proto.Node_id.to_int node)
    | None -> ()

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

  let root_cause cause =
    match String.index_opt cause ':' with
    | Some i -> String.sub cause 0 i
    | None -> cause

  (* Why a message never reached a handler: Netem lost or garbled it,
     or the validator rejected it ([Dropped cause]); its destination was
     dead; or a steering filter caught it. *)
  type refusal = Dropped of string | Dead | Filtered

  (* Every refused delivery goes through here: its counter, and its
     obs drop and span. *)
  let refuse t ~src ~dst ~sent_at ~trace msg refusal =
    let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
    let s = t.stats in
    let cause =
      match refusal with
      | Dead ->
          s.messages_dropped <- s.messages_dropped + 1;
          "dead"
      | Filtered ->
          s.messages_filtered <- s.messages_filtered + 1;
          "filtered"
      | Dropped cause ->
          s.messages_dropped <- s.messages_dropped + 1;
          Net.Netmodel.observe_loss t.netmodel ~src:se ~dst:de t.now ~delivered:false;
          root_cause cause
    in
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.incr (obs_drop o ~cause ~se ~de);
        Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de ~kind:(App.msg_kind msg)
          ~enqueue:(Dsim.Vtime.to_seconds sent_at) ~deliver:(Dsim.Vtime.to_seconds t.now)
          ~verdict:("drop:" ^ cause)

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
          if is_now then t.stats.degraded_entries <- t.stats.degraded_entries + 1
          else t.stats.degraded_exits <- t.stats.degraded_exits + 1;
          (match t.obs with
          | None -> ()
          | Some o ->
              let ni = Proto.Node_id.to_int node in
              let slot = (2 * ni) + if is_now then 0 else 1 in
              Obs.Registry.incr
                (match o.o_degraded.(slot) with
                | Some c -> c
                | None ->
                    let c =
                      Obs.Registry.counter o.o_sink.Obs.Sink.registry
                        ~name:"engine_degraded_transitions"
                        ~labels:[ ("node", string_of_int ni); ("dir", dir) ]
                    in
                    o.o_degraded.(slot) <- Some c;
                    c))
        end

  (* ---------- overload machinery ---------- *)

  let depth_gauge t ov de =
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.set
          (match o.o_mailbox_depth.(de) with
          | Some g -> g
          | None ->
              let g =
                Obs.Registry.gauge o.o_sink.Obs.Sink.registry ~name:"engine_mailbox_depth"
                  ~labels:[ ("node", string_of_int de) ]
              in
              o.o_mailbox_depth.(de) <- Some g;
              g)
          (float_of_int (Overload.depth ov de))

  let shed_mailbox t = t.stats.sheds_mailbox <- t.stats.sheds_mailbox + 1

  let enqueue t ov ~de ~prio =
    let ticket = Overload.enqueue ov ~on_shed:shed_mailbox t ~de ~prio in
    depth_gauge t ov de;
    ticket

  let prio_of = match App.priority with Some f -> f | None -> fun _ -> 0

  (* Every Deliver push funnels through here. Without the layer (the
     default): one option check, then exactly the historical push. With
     it: the arrival must clear the mailbox bound, takes a queue ticket,
     and pays the backlog's service delay — the model that
     makes deep queues cost latency, which a discrete-event delivery
     otherwise would not. *)
  let push_deliver t ?(byz = false) ~src ~dst ~sent_at ~trace ~rel ~delay msg =
    match t.ov with
    | None ->
        push_at t (Dsim.Vtime.add t.now delay)
          (Deliver { src; dst; msg; sent_at; trace; rel; did = -1; byz })
    | Some ov -> (
        let de = Proto.Node_id.to_int dst in
        match enqueue t ov ~de ~prio:(prio_of msg) with
        | Some did ->
            push_at t
              (Dsim.Vtime.add t.now (delay +. Overload.service_delay ov de))
              (Deliver { src; dst; msg; sent_at; trace; rel; did; byz })
        | None -> ())

  (* The span of one Netem verdict on a send, while a sink is attached. *)
  let send_span o ~trace ~se ~de msg ~enqueue ~deliver verdict =
    Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:se ~dst:de ~kind:(App.msg_kind msg) ~enqueue
      ~deliver ~verdict

  let transmit t ~src ~dst ~rel msg =
    let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
    let trace = t.current_trace in
    let now_s = Dsim.Vtime.to_seconds t.now in
    let s = t.stats in
    (* A reorder verdict is invisible in [judge]'s return value — it
       only inflates the delivery delay and bumps the netem counter, so
       detect it by the counter's delta. *)
    let reorders0 = Net.Netem.reorders t.netem in
    match
      Net.Netem.judge t.netem ~now:now_s ~src:se ~dst:de ~bytes:(App.msg_bytes msg)
    with
    | Net.Netem.Drop cause -> refuse t ~src ~dst ~sent_at:t.now ~trace msg (Dropped cause)
    | Net.Netem.Deliver -> (
        let delay = Net.Netem.delay t.netem in
        push_deliver t ~src ~dst ~sent_at:t.now ~trace ~rel ~delay msg;
        match t.obs with
        | None -> ()
        | Some o ->
            send_span o ~trace ~se ~de msg ~enqueue:now_s ~deliver:(now_s +. delay)
              (if Net.Netem.reorders t.netem > reorders0 then "reorder" else "deliver"))
    | Net.Netem.Duplicate delays ->
        (* Count, schedule and trace the copies in one walk of [delays]. *)
        let reordered = Net.Netem.reorders t.netem > reorders0 in
        List.iteri
          (fun i d ->
            if i > 0 then s.messages_duplicated <- s.messages_duplicated + 1;
            push_deliver t ~src ~dst ~sent_at:t.now ~trace ~rel ~delay:d msg;
            match t.obs with
            | None -> ()
            | Some o ->
                send_span o ~trace ~se ~de msg ~enqueue:now_s ~deliver:(now_s +. d)
                  (if i > 0 then "duplicate" else if reordered then "reorder" else "deliver"))
          delays
    | Net.Netem.Corrupt { flip } -> (
        s.messages_corrupted <- s.messages_corrupted + 1;
        (* The fault acts on the wire form: encode, flip bytes, try to
           decode what a receiver would see. A decode failure surfaces
           as a drop (and is counted); a flip that still parses is
           caught by the transport checksum every real deployment runs
           under, so it too surfaces as a drop — handlers never see a
           garbled payload, and nothing escapes the engine. *)
        let dropped cause = refuse t ~src ~dst ~sent_at:t.now ~trace msg (Dropped cause) in
        match App.msg_codec with
        | None -> dropped "corrupt"
        | Some codec -> (
            let garbled = garble t ~flip (Wire.Codec.encode codec msg) in
            match Wire.Codec.decode codec garbled with
            | Error e | (exception Wire.Codec.Malformed e) ->
                s.decode_failures <- s.decode_failures + 1;
                dropped ("corrupt: " ^ e)
            | Ok _ -> dropped "corrupt: checksum mismatch"))
    | Net.Netem.Mutate -> (
        let delay = Net.Netem.delay t.netem in
        (* A mutant decodes cleanly by construction — it is delivered
           as a well-formed message and flagged so the receive side can
           attribute the validator's verdict. With no wire form to
           mutate, or no candidate surviving the re-decode guarantee
           (counted), the original travels unharmed: a mutation fault
           never degenerates into loss. The span names the original. *)
        let sent, byz, verdict =
          match App.msg_codec with
          | None -> (msg, false, "deliver")
          | Some codec -> (
              let node_ids = List.init (Net.Topology.size (Net.Netem.topology t.netem)) Fun.id in
              match
                Wire.Mutator.mutate ~rng:t.rng ~node_ids codec (Wire.Codec.encode codec msg)
              with
              | Some (mutant, _bytes) ->
                  s.byz_emitted <- s.byz_emitted + 1;
                  (mutant, true, "mutate")
              | None ->
                  s.byz_discarded <- s.byz_discarded + 1;
                  (msg, false, "deliver"))
        in
        push_deliver t ~byz ~src ~dst ~sent_at:t.now ~trace ~rel ~delay sent;
        match t.obs with
        | None -> ()
        | Some o -> send_span o ~trace ~se ~de msg ~enqueue:now_s ~deliver:(now_s +. delay) verdict)

  (* A send: while reliable delivery is on, register it as pending and
     arm the first retransmit timer before handing the payload to Netem
     — the tracking must survive whatever verdict the network passes. *)
  let route t ~src ~dst msg =
    let rel =
      match t.rel with
      | Some r ->
          let seq = Reliable.track r ~src ~dst msg in
          schedule t ~after:(Reliable.timeout r t.rng ~tries:0)
            (Rel_retransmit { seq; trace = t.current_trace });
          Some seq
      | None -> None
    in
    transmit t ~src ~dst ~rel msg

  (* The ack crosses the same emulated network as the payload — judged
     for loss, latency and duplication — so a partition that eats the
     payload's direction or the reverse one breaks the handshake
     realistically. A lost ack is recovered by the retransmit timer and
     absorbed by the receiver's seen-set. *)
  let push_ack t ~seq delay =
    push_at t (Dsim.Vtime.add t.now delay) (Rel_ack { seq; trace = t.current_trace })

  let send_ack t r ~receiver ~sender ~seq =
    let se = Proto.Node_id.to_int receiver and de = Proto.Node_id.to_int sender in
    match
      Net.Netem.judge t.netem ~now:(Dsim.Vtime.to_seconds t.now) ~src:se ~dst:de
        ~bytes:(Reliable.ack_bytes r)
    with
    | Net.Netem.Drop _ -> ()
    | Net.Netem.Deliver -> push_ack t ~seq (Net.Netem.delay t.netem)
    | Net.Netem.Duplicate delays -> List.iter (push_ack t ~seq) delays
    | Net.Netem.Corrupt _ -> ()
    (* An ack carries no application payload to mutate; it arrives
       intact. *)
    | Net.Netem.Mutate -> push_ack t ~seq (Net.Netem.delay t.netem)

  let inject t ?(after = 0.) ~src ~dst msg =
    (* same guard (and message) the pre-overload [schedule] path gave *)
    if after < 0. then invalid_arg "Sim.schedule: negative delay";
    check_endpoint t src;
    check_endpoint t dst;
    (* An injection is a root send: it starts a fresh causal chain. *)
    t.current_trace <- mint_trace t;
    if after = 0. then route t ~src ~dst msg
    else
      push_deliver t ~src ~dst ~sent_at:t.now ~trace:t.current_trace ~rel:None ~delay:after msg

  let add_filter t ~name drop = t.filters <- { f_name = name; drop } :: t.filters
  let clear_filters t = t.filters <- []

  let shed_while_queued t ~dst ~did =
    match t.ov with
    | Some ov when did >= 0 ->
        let live = Overload.processed ov did in
        if live then depth_gauge t ov (Proto.Node_id.to_int dst);
        not live
    | Some _ | None -> false

  (* Passive heartbeat: every arrival is evidence the sender is up,
     feeding the phi-accrual detector. Pure arithmetic — no RNG, no
     events — so benign runs are bit-identical with the detector on or
     off. Stamped with the observer's local reading: a drifting
     destination mis-measures heartbeat intervals exactly as a real
     skewed box would. *)
  let heartbeat t ~src ~dst =
    let de = Proto.Node_id.to_int dst in
    if
      t.fd_enabled
      && Net.Failure_detector.heartbeat t.fd ~observer:de ~peer:(Proto.Node_id.to_int src)
           ~now:(local_now t dst)
    then begin
      t.stats.fd_recoveries <- t.stats.fd_recoveries + 1;
      match t.obs with
      | Some o -> obs_node_counter o o.o_fd_recoveries ~name:"engine_fd_recoveries" de
      | None -> ()
    end

  (* Ack every tracked arrival, duplicates included — the sender may
     have missed the first ack — and report a retransmission (or Netem
     duplicate) of a payload already handled, which the app must not
     see twice. *)
  let duplicate_arrival t ~src ~dst ~rel =
    match (rel, t.rel) with
    | Some seq, Some r ->
        let dup = not (Reliable.first_arrival r seq) in
        send_ack t r ~receiver:dst ~sender:src ~seq;
        if dup then t.stats.rel_dup_dropped <- t.stats.rel_dup_dropped + 1;
        dup
    | (Some _ | None), _ -> false

  (* Application-level admission: the validator sees every delivery (it
     must accept all honest traffic, so clean runs are unchanged); a
     rejection is a drop, attributed to the byzantine layer when the
     payload was a mutant. Pure — consumes no randomness either way. *)
  let validate t ~byz msg =
    let verdict = match App.validate with Some check -> check msg | None -> Ok () in
    (if byz then
       match verdict with
       | Error _ -> t.stats.byz_rejected <- t.stats.byz_rejected + 1
       | Ok () -> t.stats.byz_accepted <- t.stats.byz_accepted + 1);
    verdict

  (* ---------- timer generations ---------- *)

  (* Arming or cancelling a timer moves its id to a fresh generation,
     which leaves any pending fire of the id stale. *)
  let next_timer_gen t node id =
    let e = Proto.Node_id.to_int node in
    let gens = t.timer_gens.(e) in
    let gen = 1 + match Smap.find_opt id gens with Some g -> g | None -> 0 in
    t.timer_gens.(e) <- Smap.add id gen gens;
    gen

  let timer_current t node id gen =
    match Smap.find_opt id t.timer_gens.(Proto.Node_id.to_int node) with
    | Some g -> g = gen
    | None -> false

  (* ---------- property checks ---------- *)

  (* The properties the engine checks after every event. *)
  let safety =
    Array.of_list
      (List.filter (fun (p : _ Core.Property.t) -> p.kind = Core.Property.Safety) App.properties)

  (* The names of the properties whose trackers reject [view], in list
     order. *)
  let rec violated t view i =
    if i = Array.length safety then []
    else if t.trackers.(i).Core.Property.holds view then violated t view (i + 1)
    else safety.(i).name :: violated t view (i + 1)

  (* Edge-detect: one recorded violation per incident, not one per
     event while the bad state persists. *)
  let rec record_violations t = function
    | [] -> ()
    | name :: rest ->
        if not (List.mem name t.violated_now) then begin
          t.violations <- (t.now, name) :: t.violations;
          t.violation_count <- t.violation_count + 1
        end;
        record_violations t rest

  (* ---------- choice resolution ---------- *)

  (* Lookahead: for each candidate, fork the simulation, replay the
     in-flight event with that branch forced (and all earlier choices of
     the same event pinned to what was actually decided), run the fork
     [horizon] seconds, and score the resulting view. *)
  let rec predict_branch t (cfg : lookahead) fallback ~node ev ~forced =
    let f = fork_with t fallback in
    f.mode <- Replay (forced, fallback);
    t.stats.lookahead_forks <- t.stats.lookahead_forks + 1;
    let before_violations = f.violation_count in
    (* The event fired at or before [t.now], which the fork inherits, so
       replaying it at [t.now] leaves the fork's clock where it is. *)
    process_scheduled f ~at:t.now ev;
    f.mode <- Plain fallback;
    run_budgeted f ~until:(Dsim.Vtime.add t.now cfg.horizon) ~budget:cfg.max_events;
    let fresh_violations = f.violation_count - before_violations in
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
          | Some ev ->
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
                          predict_branch t cfg fb ~node ev
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
    t.stats.decisions <- t.stats.decisions + 1;
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

  (* The node's one context in this engine, stamped with its local
     reading of the current instant: a skewed node's handlers see their
     own clock, so every ctx-driven timeout comparison
     (failure-detector suspicion, breaker cooldown, app timestamps)
     runs in the node's frame of reference. *)
  and ctx_for t node : Proto.Ctx.t =
    let e = Proto.Node_id.to_int node in
    let ctx =
      match t.ctxs.(e) with
      | Some ctx -> ctx
      | None ->
          let ctx : Proto.Ctx.t =
            {
              self = node;
              now = t.now;
              rng = t.rng;
              net = t.netmodel;
              fd = t.fd;
              cb = t.cb;
              pressure = (fun () -> pressure t node);
              choose = (fun choice -> Core.Choice.nth choice (resolve_index t node choice));
            }
          in
          t.ctxs.(e) <- Some ctx;
          ctx
    in
    ctx.now <- local_now t node;
    ctx

  (* ---------- actions ---------- *)

  and perform_action t node actions =
    List.iter
      (fun action ->
        match action with
        | Proto.Action.Send { dst; msg } -> route t ~src:node ~dst msg
        | Proto.Action.Set_timer { id; after } -> (
            let gen = next_timer_gen t node id in
            (* same guard (and message) [schedule] gives *)
            if after < 0. then invalid_arg "Sim.schedule: negative delay";
            match Clocks.find t.clocks node with
            | None ->
                let at = Dsim.Vtime.add t.now after in
                push_at t at (Timer_fire { node; id; gen; deadline = at; trace = t.current_trace })
            | Some ck ->
                (* [after] is a duration on the node's own clock: the
                   deadline lives in local time and its global fire
                   instant follows from the clock's current segment — a
                   fast clock fires early in global time. *)
                let deadline = Dsim.Vtime.add (Dsim.Clock.read ck ~global:t.now) after in
                let at = global_of_deadline t ck deadline in
                push_at t at (Timer_fire { node; id; gen; deadline; trace = t.current_trace }))
        | Proto.Action.Cancel_timer id -> ignore (next_timer_gen t node id : int)
        | Proto.Action.Note _ -> ())
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

  (* Write-ahead step for one transition: ask the app what (if
     anything) this transition must persist, append it, and return the
     disk's completion delay so the caller can withhold the sends. *)
  and persist t node ~prev ~next (d : (App.state, App.msg) Proto.Durability.t) =
    match d.log ~prev ~next with
    | None -> 0.
    | Some record ->
        let store = Disks.store_of t.disks node in
        let now = Dsim.Vtime.to_seconds t.now in
        let delay = Store.append store ~now record in
        t.stats.wal_appends <- t.stats.wal_appends + 1;
        if Store.wal_entries store >= d.snapshot_every then begin
          (* Compaction queues behind the append on the same disk, so
             its completion delay subsumes the append's. *)
          let delay' = Disks.install_snapshot store ~now d next in
          t.stats.snapshots <- t.stats.snapshots + 1;
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
        let nodes = Proto.Node_id.Map.add node { n with state } t.nodes in
        (* A handler changes one live node's state: patch its entry and
           share the rest of the list rather than rebuilding it. *)
        if n.alive && t.live_of == t.nodes then begin
          t.live <- replace_live node state t.live;
          t.live_of <- nodes
        end;
        t.nodes <- nodes;
        touch t node;
        defer_sends t node ~delay actions

  and recover t id d boot =
    let r = Disks.recover t.disks id ~now:t.now d boot in
    let s = t.stats in
    if r.torn then s.torn_recoveries <- s.torn_recoveries + 1;
    if r.restored then s.recoveries <- s.recoveries + 1;
    s.snapshots <- s.snapshots + 1;
    (r.state, r.delay)

  and accept t (n : node) ~src ~dst ~sent_at ~kind msg =
    let se = Proto.Node_id.to_int src and de = Proto.Node_id.to_int dst in
    let latency = Dsim.Vtime.diff t.now sent_at in
    let nml = Net.Netmodel.link t.netmodel ~src:se ~dst:de in
    Net.Netmodel.observe_link_latency t.netmodel nml t.now latency;
    Net.Netmodel.observe_link_loss t.netmodel nml t.now ~delivered:true;
    if latency > 0. then
      Net.Netmodel.observe_link_bandwidth t.netmodel nml t.now
        (float_of_int (App.msg_bytes msg) /. latency);
    t.stats.messages_delivered <- t.stats.messages_delivered + 1;
    (match Stbl.find t.kind_counts kind with
    | r -> incr r
    | exception Not_found -> Stbl.add t.kind_counts kind (ref 1));
    log_message t ~src ~dst kind;
    (match t.obs with
    | None -> ()
    | Some o ->
        let lh = obs_link o ~se ~de in
        Obs.Registry.incr lh.lo_node_deliveries;
        Obs.Registry.incr lh.lo_link_deliveries;
        Obs.Registry.observe lh.lo_link_latency (latency *. 1000.));
    match Proto.Handler.applicable App.receive n.state ~src msg with
    | [] -> ()
    | [ h ] ->
        let ctx = ctx_for t dst in
        apply_handler_result t dst (h.handle ctx n.state ~src msg)
    | several ->
        (* NFA ambiguity: which handler runs is itself a choice. *)
        let ctx = ctx_for t dst in
        let h = ctx.choose (Core.Choice.of_values ~label:("handler:" ^ kind) several) in
        apply_handler_result t dst (h.handle ctx n.state ~src msg)

  and acked t r seq =
    match Reliable.find r seq with
    | None -> ()
    | Some e ->
        Reliable.remove r seq;
        t.stats.rel_acked <- t.stats.rel_acked + 1;
        (* an ack is the strongest health evidence the sending side
           gets: it closes the breaker toward the pair *)
        if t.breaker_enabled then
          Net.Circuit_breaker.record_success t.cb ~src:(Proto.Node_id.to_int e.src)
            ~dst:(Proto.Node_id.to_int e.dst)

  (* Sender-side timeout of a tracked send that may still be unacked:
     the reliable layer applies its retry policy, the engine carries it
     out. An abandoned send is reported to the sending app through the
     synthetic timer id "rel.giveup:<kind>" so it can react — or ignore
     it, the default catch-all timer arm makes the notification
     opt-in. *)
  and retransmit t r seq =
    match Reliable.find r seq with
    | None -> ()  (* acked in the meantime: the common case *)
    | Some e -> (
        match Proto.Node_id.Map.find_opt e.src t.nodes with
        | Some n when n.alive -> (
            let se = Proto.Node_id.to_int e.src and de = Proto.Node_id.to_int e.dst in
            let kind = App.msg_kind e.msg in
            (* The sender is the observer here: its suspicion levels and
               breaker cooldowns are judged on its own clock. *)
            let now = local_now t e.src in
            let rearm (e : _ Reliable.entry) =
              schedule t ~after:(Reliable.timeout r t.rng ~tries:e.tries)
                (Rel_retransmit { seq; trace = t.current_trace })
            in
            match
              Reliable.timed_out r seq e
                ~breaker:(if t.breaker_enabled then Some t.cb else None)
                ~suspected:(fun () ->
                  t.fd_enabled && Net.Failure_detector.suspected t.fd ~observer:se ~peer:de ~now)
                ~pressure:(fun () -> pressure t e.src)
                ~now
            with
            | Reliable.Give_up ->
                t.stats.rel_giveups <- t.stats.rel_giveups + 1;
                let ctx = ctx_for t e.src in
                apply_handler_result t e.src (App.on_timer ctx n.state ("rel.giveup:" ^ kind))
            | Resend e ->
                t.stats.rel_retransmits <- t.stats.rel_retransmits + 1;
                transmit t ~src:e.src ~dst:e.dst ~rel:(Some seq) e.msg;
                rearm e
            | Refused e ->
                t.stats.breaker_skips <- t.stats.breaker_skips + 1;
                rearm e)
        | Some _ | None ->
            (* Sender died with the send outstanding — nobody is left to
               retransmit. *)
            Reliable.remove r seq)

  (* One tick of a running burst: a chaff arrival through the same
     bounded queues as real traffic, then the next tick. *)
  and burst_tick t ov ~dst ~gen =
    let de = Proto.Node_id.to_int dst in
    match Overload.burst_rate ov de ~gen with
    | None -> ()  (* healed, or superseded by a newer burst *)
    | Some rate ->
        t.stats.chaff_sent <- t.stats.chaff_sent + 1;
        (match enqueue t ov ~de ~prio:Overload.chaff_prio with
        | Some did ->
            let delay = Overload.chaff_latency +. Overload.service_delay ov de in
            push_at t (Dsim.Vtime.add t.now delay) (Chaff { dst; did })
        | None -> ());
        schedule t ~after:(1. /. rate) (Overload_tick { dst; gen })

  and process_scheduled t ~at ev =
    t.now <- Dsim.Vtime.max t.now at;
    t.stats.events_processed <- t.stats.events_processed + 1;
    t.event_occurrence <- 0;
    let saved_decisions = t.event_decisions in
    t.event_decisions <- [];
    let saved_processing = t.processing in
    t.processing <- Some ev;
    (* Everything a handler does while this event is in flight — sends,
       timers, deferred outbound batches — inherits its trace id. *)
    (match ev with
    | Boot _ | Chaff _ | Overload_tick _ -> t.current_trace <- mint_trace t
    | Deliver { trace; _ }
    | Timer_fire { trace; _ }
    | Outbound { trace; _ }
    | Rel_ack { trace; _ }
    | Rel_retransmit { trace; _ } ->
        t.current_trace <- trace);
    (match t.obs with
    | None -> ()
    | Some o ->
        Obs.Registry.set o.o_queue_depth (float_of_int (Dsim.Event_queue.length t.queue)));
    (match ev with
    | Boot id -> (
        match Proto.Node_id.Map.find_opt id t.nodes with
        | Some n when n.alive ->
            (* A stale Boot — something else already revived the node
               since this restart was scheduled. Idempotence says the
               later revival is a no-op. *)
            ()
        | prev ->
            let ctx = ctx_for t id in
            let boot, actions = App.init ctx in
            (* Bump every inherited timer generation so timers armed by a
               previous incarnation of this node can no longer fire, while
               generations the new incarnation hands out stay distinct from
               the old ones. *)
            let e = Proto.Node_id.to_int id in
            t.timer_gens.(e) <-
              (match prev with
              | Some _ -> Smap.map (fun g -> g + 1) t.timer_gens.(e)
              | None -> Smap.empty);
            let incarnation = match prev with Some p -> p.incarnation + 1 | None -> 0 in
            let state, delay =
              match App.durable with None -> (boot, 0.) | Some d -> recover t id d boot
            in
            note_degraded t id ~prev:(Option.map (fun (p : node) -> p.state) prev) ~next:state;
            t.nodes <- Proto.Node_id.Map.add id { state; alive = true; incarnation } t.nodes;
            touch t id;
            defer_sends t id ~delay actions)
    | Deliver { src; dst; msg; sent_at; trace; rel; did; byz } -> (
        (* A straight line of stages; the first that claims the message
           ends the delivery. *)
        (* Evicted from a bounded queue while in flight — counted (by
           cause) at shed time; the node never sees it. *)
        if not (shed_while_queued t ~dst ~did) then
          match Proto.Node_id.Map.find_opt dst t.nodes with
          | Some n when n.alive ->
              let kind = App.msg_kind msg in
              if List.exists (fun f -> f.drop ~kind ~src ~dst) t.filters then
                refuse t ~src ~dst ~sent_at ~trace msg Filtered
              else begin
                heartbeat t ~src ~dst;
                if not (duplicate_arrival t ~src ~dst ~rel) then
                  match validate t ~byz msg with
                  | Error reason ->
                      refuse t ~src ~dst ~sent_at ~trace msg (Dropped ("invalid: " ^ reason))
                  | Ok () -> accept t n ~src ~dst ~sent_at ~kind msg
              end
          | Some _ | None -> refuse t ~src ~dst ~sent_at ~trace msg Dead)
    | Timer_fire { node; id; gen; deadline = _; trace } -> (
        match Proto.Node_id.Map.find_opt node t.nodes with
        | Some n when n.alive && timer_current t node id gen ->
            (match t.obs with
            | None -> ()
            | Some o ->
                let ni = Proto.Node_id.to_int node in
                obs_node_counter o o.o_timer_fires ~name:"engine_timer_fires" ni;
                let at = Dsim.Vtime.to_seconds t.now in
                Obs.Span.record o.o_sink.Obs.Sink.spans ~trace ~src:ni ~dst:ni
                  ~kind:("timer:" ^ id) ~enqueue:at ~deliver:at ~verdict:"fire");
            let ctx = ctx_for t node in
            apply_handler_result t node (App.on_timer ctx n.state id)
        | Some _ | None -> ())
    | Outbound { node; incarnation; actions; trace = _ } -> (
        match Proto.Node_id.Map.find_opt node t.nodes with
        | Some n when n.alive && n.incarnation = incarnation -> perform_action t node actions
        | Some _ | None ->
            (* The node crashed (or was reborn) before its write
               completed: the withheld messages were never sent. *)
            ())
    | Rel_ack { seq; trace = _ } -> ( match t.rel with Some r -> acked t r seq | None -> ())
    | Rel_retransmit { seq; trace = _ } -> (
        match t.rel with Some r -> retransmit t r seq | None -> ())
    | Overload_tick { dst; gen } -> (
        match t.ov with Some ov -> burst_tick t ov ~dst ~gen | None -> ())
    | Chaff { dst; did } -> (
        match t.ov with
        | Some ov when Overload.processed ov did -> depth_gauge t ov (Proto.Node_id.to_int dst)
        | Some _ | None -> ()));
    t.processing <- saved_processing;
    t.event_decisions <- saved_decisions;
    if t.check_properties && Array.length safety > 0 then begin
      let view = transient_view t in
      if Array.length t.trackers = 0 then
        t.trackers <- Array.map (fun p -> Core.Property.start p view) safety;
      let now_violated = violated t view 0 in
      if now_violated <> [] || t.violated_now <> [] then begin
        record_violations t now_violated;
        t.violated_now <- now_violated
      end
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

  (* Pops and processes the earliest event; the caller has checked the
     queue is not empty. *)
  and process_next t =
    let at = Dsim.Vtime.of_seconds (Dsim.Event_queue.min_key t.queue) in
    process_scheduled t ~at (Dsim.Event_queue.pop t.queue)

  and run_budgeted t ~until ~budget =
    let until_s = Dsim.Vtime.to_seconds until in
    let remaining = ref budget in
    (* An empty queue's minimum key is infinity, past any [until]. *)
    while !remaining > 0 && Dsim.Event_queue.min_key t.queue <= until_s do
      process_next t;
      decr remaining
    done;
    if Dsim.Vtime.(t.now < until) then t.now <- until

  let step t =
    if Dsim.Event_queue.is_empty t.queue then false
    else begin
      process_next t;
      true
    end

  let run_until t until = run_budgeted t ~until ~budget:max_int
  let run_for t dt = run_until t (Dsim.Vtime.add t.now dt)

  let run_until_quiescent ?(max_events = 1_000_000) t =
    let remaining = ref max_events in
    let continue = ref true in
    while !continue && !remaining > 0 do
      if not (step t) then continue := false else decr remaining
    done
end
