module Make (App : Proto.App_intf.APP) = struct
  module Nm = Proto.Node_id.Map

  type world = {
    states : App.state Proto.Node_id.Map.t;
    pending : (Proto.Node_id.t * Proto.Node_id.t * App.msg) list;
    timers : (Proto.Node_id.t * string) list;
    clocks : (Proto.Node_id.t * int) list;
  }

  type step =
    | Deliver_step of { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }
    | Drop_step of { src : Proto.Node_id.t; dst : Proto.Node_id.t; kind : string }
    | Timer_step of { node : Proto.Node_id.t; id : string }
    | Generic_step of { dst : Proto.Node_id.t; kind : string }

  type violation = { property : string; path : step list; at_depth : int }

  type result = {
    violations : violation list;
    worlds_explored : int;
    worlds_deduped : int;
    liveness_unmet : string list;
    truncated : bool;
    outcomes_cached : int;
    fingerprint_collisions : int;
  }

  let pp_step ppf = function
    | Deliver_step { src; dst; kind } ->
        Format.fprintf ppf "deliver(%s %a->%a)" kind Proto.Node_id.pp src Proto.Node_id.pp dst
    | Drop_step { src; dst; kind } ->
        Format.fprintf ppf "drop(%s %a->%a)" kind Proto.Node_id.pp src Proto.Node_id.pp dst
    | Timer_step { node; id } -> Format.fprintf ppf "timer(%a.%s)" Proto.Node_id.pp node id
    | Generic_step { dst; kind } -> Format.fprintf ppf "generic(%s ->%a)" kind Proto.Node_id.pp dst

  let world_of_view ?(timers = []) ?(clocks = []) (view : (App.state, App.msg) Proto.View.t) =
    {
      states =
        List.fold_left (fun m (id, s) -> Proto.Node_id.Map.add id s m) Proto.Node_id.Map.empty
          view.nodes;
      pending = Proto.View.inflight view;
      timers;
      clocks;
    }

  (* ---------- Fingerprints ----------

     Dedup keys worlds by a pair of independent 63-bit lanes instead of
     an MD5 of the pretty-printed world. The first lane indexes the
     visited table; the second is stored and checked, so a first-lane
     collision between structurally distinct worlds is {e detected}
     (counted in [fingerprint_collisions]) and the worlds kept apart,
     reproducing the effectively collision-free behavior of the old
     digest. Per-element fingerprints (one per node state, one per
     pending message) are cached in the internal world representation
     and combined with a cheap mixer, so deriving a successor world
     only hashes what changed. *)

  let mix h k =
    let h = h lxor ((k + 0x9e3779b9) * 0x2545F4914F6CDD1D) in
    let h = (h lsl 13) lor ((h land max_int) lsr 50) in
    (h * 5) + 0x38495ab5

  let render pp v =
    let buf = Buffer.create 64 in
    let ppf = Format.formatter_of_buffer buf in
    pp ppf v;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  (* Per-node state fingerprint pair. The app hook, when present, must
     match [pp_state]'s equivalence classes (see {!App_intf.APP}); the
     fallback hashes the [pp_state] rendering itself, which is exact by
     construction and done once per distinct reached state rather than
     once per world. *)
  let state_fp =
    match App.fingerprint with
    | Some f -> fun st ->
        let h = f st in
        (mix 0x12345 h, mix 0x6789a (h lxor 0x0F0F0F0F))
    | None ->
        fun st ->
          let s = render App.pp_state st in
          (Hashtbl.hash s, Hashtbl.seeded_hash 0x3ade68b1 s)

  let msg_fp m =
    let s = render App.pp_msg m in
    (Hashtbl.hash s, Hashtbl.seeded_hash 0x3ade68b1 s)

  (* Internal world: the public shape plus cached per-element
     fingerprints, so world keys are an integer fold, not a render. *)
  type pmsg = {
    p_src : Proto.Node_id.t;
    p_dst : Proto.Node_id.t;
    p_msg : App.msg;
    p_fp1 : int;
    p_fp2 : int;
  }

  type iworld = {
    i_states : App.state Nm.t;
    i_sfp : (int * int) Nm.t;
    i_pending : pmsg list;
    i_timers : (Proto.Node_id.t * string) list;
    i_clocks : (Proto.Node_id.t * int) list;
        (* clock fingerprints of skewed nodes, fixed for the whole
           explore — exploration is untimed, but two snapshots that
           differ only in clock state must not dedup to one world *)
  }

  let iworld_of_world (w : world) =
    {
      i_states = w.states;
      i_sfp = Nm.map state_fp w.states;
      i_pending =
        List.map
          (fun (src, dst, msg) ->
            let f1, f2 = msg_fp msg in
            { p_src = src; p_dst = dst; p_msg = msg; p_fp1 = f1; p_fp2 = f2 })
          w.pending;
      i_timers = w.timers;
      i_clocks = w.clocks;
    }

  (* Deferred: property checks that read only node states never build
     the in-flight list. [iw] is immutable, so the view stays valid. *)
  let view_of_iworld iw : (App.state, App.msg) Proto.View.t =
    Proto.View.deferred ~time:Dsim.Vtime.zero ~nodes:(Nm.bindings iw.i_states) (fun () ->
        List.map (fun p -> (p.p_src, p.p_dst, p.p_msg)) iw.i_pending)

  let world_key iw =
    let h1 = ref 0x42 and h2 = ref 0x1337 in
    Nm.iter
      (fun id (f1, f2) ->
        let n = Proto.Node_id.to_int id in
        h1 := mix (mix !h1 n) f1;
        h2 := mix (mix !h2 (n + 1)) f2)
      iw.i_sfp;
    List.iter
      (fun p ->
        let s = Proto.Node_id.to_int p.p_src and d = Proto.Node_id.to_int p.p_dst in
        h1 := mix (mix (mix !h1 s) d) p.p_fp1;
        h2 := mix (mix (mix !h2 (s + 1)) (d + 1)) p.p_fp2)
      iw.i_pending;
    List.iter
      (fun (n, id) ->
        let i = Proto.Node_id.to_int n in
        h1 := mix (mix !h1 i) (Hashtbl.hash id);
        h2 := mix (mix !h2 (i + 1)) (Hashtbl.seeded_hash 0x3ade68b1 id))
      iw.i_timers;
    List.iter
      (fun (n, fp) ->
        let i = Proto.Node_id.to_int n in
        h1 := mix (mix !h1 (i + 2)) fp;
        h2 := mix (mix !h2 (i + 3)) (fp lxor 0x5ca1ab1e))
      iw.i_clocks;
    (!h1, !h2)

  (* Runs a handler body under a decision script: choice occurrence [o]
     answers [script(o)], defaulting to alternative 0. Returns the
     result plus the (occurrence, arity) pairs encountered, so the
     caller can enumerate the remaining branches. *)
  let run_scripted ~seed ~self script body =
    let arities = ref [] in
    let occurrence = ref 0 in
    let choose : type a. a Core.Choice.t -> a =
     fun c ->
      let o = !occurrence in
      incr occurrence;
      let arity = Core.Choice.arity c in
      arities := (o, arity) :: !arities;
      let i =
        match List.assoc_opt o script with Some i -> min i (arity - 1) | None -> 0
      in
      Core.Choice.nth c i
    in
    let ctx : Proto.Ctx.t =
      {
        self;
        now = Dsim.Vtime.zero;
        rng = Dsim.Rng.create seed;
        net = Net.Netmodel.create ();
        fd = Net.Failure_detector.create ();
        cb = Net.Circuit_breaker.create ();
        pressure = (fun () -> 0.);
        choose;
      }
    in
    let result = body ctx in
    (result, List.rev !arities)

  (* All outcomes of a handler body over every combination of choice
     alternatives, enumerated without duplicates: after running one
     script, branch on each later occurrence's non-default alternatives,
     and in the recursion only branch beyond that occurrence. *)
  let all_outcomes ~seed ~self body =
    let acc = ref [] in
    let rec go script frontier =
      let result, arities = run_scripted ~seed ~self script body in
      acc := result :: !acc;
      List.iter
        (fun (occ, arity) ->
          if occ >= frontier && arity > 1 then
            for i = 1 to arity - 1 do
              go (script @ [ (occ, i) ]) (occ + 1)
            done)
        arities
    in
    go [] 0;
    List.rev !acc

  let remove_nth i xs = List.filteri (fun j _ -> j <> i) xs

  (* ---------- Transposition cache ----------

     Handler outcomes are pure functions of (state, src, msg, seed) —
     each scripted run builds a fresh RNG and net model — so they can
     be memoized across worlds and across explore calls. Keys compare
     with real state/message equality (fingerprints only speed up
     hashing), so a cache hit is exact, never a hash-collision guess.
     Cached entries hold the successor state's fingerprint and each
     sent message's fingerprint, so replaying a hit does no rendering
     at all. *)

  type pact =
    | P_send of { dst : Proto.Node_id.t; msg : App.msg; fp1 : int; fp2 : int }
    | P_set of string
    | P_cancel of string

  type outcome = { o_state : App.state; o_fp : int * int; o_acts : pact list }

  type dkey = {
    dk_state : App.state;
    dk_sfp : int;
    dk_src : int;
    dk_msg : App.msg;
    dk_mh : int;
    dk_seed : int;
  }

  module Dkey = struct
    type t = dkey

    let equal a b =
      a.dk_sfp = b.dk_sfp && a.dk_src = b.dk_src && a.dk_mh = b.dk_mh && a.dk_seed = b.dk_seed
      && App.equal_state a.dk_state b.dk_state
      && a.dk_msg = b.dk_msg

    let hash k = Hashtbl.hash (k.dk_sfp, k.dk_src, k.dk_mh, k.dk_seed)
  end

  module Dcache = Hashtbl.Make (Dkey)

  type tkey = { tk_state : App.state; tk_sfp : int; tk_id : string; tk_seed : int }

  module Tkey = struct
    type t = tkey

    let equal a b =
      a.tk_sfp = b.tk_sfp && a.tk_seed = b.tk_seed && String.equal a.tk_id b.tk_id
      && App.equal_state a.tk_state b.tk_state

    let hash k = Hashtbl.hash (k.tk_sfp, k.tk_id, k.tk_seed)
  end

  module Tcache = Hashtbl.Make (Tkey)

  (* ---------- Root memo ----------

     Steering explores the same neighbourhood round after round, so
     the cache also remembers whole explores, keyed on the root world
     and every parameter that shapes the search. Replaying one is
     exact: an explore whose handler lookups all went into the tables
     finds every one of them there again, as long as no table has been
     reset since, so a real re-explore would return the same result
     with [outcomes_cached] equal to its lookup count. *)

  type params = {
    max_worlds : int;
    include_drops : bool;
    generic_node : bool;
    seed : int;
    depth : int;
    early_stop : bool;
  }

  let same_params a b =
    Int.equal a.max_worlds b.max_worlds
    && Bool.equal a.include_drops b.include_drops
    && Bool.equal a.generic_node b.generic_node
    && Int.equal a.seed b.seed && Int.equal a.depth b.depth
    && Bool.equal a.early_stop b.early_stop

  type memo = {
    m_root : iworld;
    m_k1 : int;
    m_k2 : int;
    m_params : params;
    m_level : int;  (* the level the search stopped at, for [iterative] *)
    m_result : result;
    m_lookups : int;  (* handler-table lookups the explore made *)
  }

  (* The same equalities the handler tables use: a root that matches
     makes exactly the lookups, and reaches exactly the worlds, the
     remembered one did. *)
  let same_root a b =
    Nm.equal App.equal_state a.i_states b.i_states
    && List.equal
         (fun p q ->
           Proto.Node_id.equal p.p_src q.p_src
           && Proto.Node_id.equal p.p_dst q.p_dst
           && p.p_msg = q.p_msg)
         a.i_pending b.i_pending
    && List.equal
         (fun (n, id) (n', id') -> Proto.Node_id.equal n n' && String.equal id id')
         a.i_timers b.i_timers
    && List.equal
         (fun (n, fp) (n', fp') -> Proto.Node_id.equal n n' && Int.equal fp fp')
         a.i_clocks b.i_clocks

  type cache = {
    c_deliver : outcome list Dcache.t;  (* [] encodes "no applicable handler" *)
    c_timer : outcome list Tcache.t;
    mutable c_hits : int;
    mutable c_lookups : int;  (* hits + misses, for hit-rate profiling *)
    mutable c_spoiled : int;
        (* bumped whenever a lookup can no longer be found again: a
           table reset, or a key not equal to itself (a NaN inside a
           state or message); an explore during which it moved is not
           remembered *)
    c_memo : memo option array;  (* direct-mapped on the root's first key lane *)
    c_recent : (world * memo) option array;
        (* the last roots served, by the caller's value: a runtime that
           hands back the same world skips keying it *)
    mutable c_recent_next : int;
  }

  let memo_slots = 64
  let recent_slots = 16

  (* Small to start, like the visited table: a cache made for one
     explore serves a handful of lookups, and a persistent one grows
     once to its working set. *)
  let create_cache () =
    {
      c_deliver = Dcache.create 16;
      c_timer = Tcache.create 16;
      c_hits = 0;
      c_lookups = 0;
      c_spoiled = 0;
      c_memo = Array.make memo_slots None;
      c_recent = Array.make recent_slots None;
      c_recent_next = 0;
    }

  (* Bound memory on pathological workloads; steering neighbourhoods
     stay far below this. *)
  let cache_cap = 200_000

  let spoil cache = cache.c_spoiled <- cache.c_spoiled + 1

  (* A reset table no longer holds the lookups remembered explores
     made, so their replays would overstate [outcomes_cached]. *)
  let forget cache =
    Array.fill cache.c_memo 0 (Array.length cache.c_memo) None;
    Array.fill cache.c_recent 0 (Array.length cache.c_recent) None;
    spoil cache

  let precompute (state', actions) =
    let o_acts =
      List.filter_map
        (function
          | Proto.Action.Send { dst; msg } ->
              let fp1, fp2 = msg_fp msg in
              Some (P_send { dst; msg; fp1; fp2 })
          | Proto.Action.Set_timer { id; _ } -> Some (P_set id)
          | Proto.Action.Cancel_timer id -> Some (P_cancel id)
          | Proto.Action.Note _ -> None)
        actions
    in
    { o_state = state'; o_fp = state_fp state'; o_acts }

  (* Outcomes of delivering [msg] from [src] at [dst] — one per
     (handler, choice-combo), [] when no handler applies — memoized in
     [cache]. *)
  let cached_deliver cache ~seed iw ~src ~dst msg =
    match Nm.find_opt dst iw.i_states with
    | None -> `Unchanged
    | Some state -> (
        let sfp = fst (Nm.find dst iw.i_sfp) in
        let key =
          {
            dk_state = state;
            dk_sfp = sfp;
            dk_src = Proto.Node_id.to_int src;
            dk_msg = msg;
            dk_mh = Hashtbl.hash msg;
            dk_seed = seed;
          }
        in
        cache.c_lookups <- cache.c_lookups + 1;
        match Dcache.find_opt cache.c_deliver key with
        | Some outs ->
            cache.c_hits <- cache.c_hits + 1;
            if outs = [] then `Unchanged else `Outcomes (dst, outs)
        | None ->
            let outs =
              match Proto.Handler.applicable App.receive state ~src msg with
              | [] -> []
              | handlers ->
                  List.concat_map
                    (fun (h : _ Proto.Handler.t) ->
                      all_outcomes ~seed ~self:dst (fun ctx -> h.handle ctx state ~src msg)
                      |> List.map precompute)
                    handlers
            in
            if Dcache.length cache.c_deliver >= cache_cap then begin
              Dcache.reset cache.c_deliver;
              forget cache
            end;
            if not (Dkey.equal key key) then spoil cache;
            Dcache.add cache.c_deliver key outs;
            if outs = [] then `Unchanged else `Outcomes (dst, outs))

  let cached_timer cache ~seed iw ~node ~id =
    match Nm.find_opt node iw.i_states with
    | None -> `Unchanged
    | Some state -> (
        let sfp = fst (Nm.find node iw.i_sfp) in
        let key = { tk_state = state; tk_sfp = sfp; tk_id = id; tk_seed = seed } in
        cache.c_lookups <- cache.c_lookups + 1;
        match Tcache.find_opt cache.c_timer key with
        | Some outs ->
            cache.c_hits <- cache.c_hits + 1;
            `Outcomes (node, outs)
        | None ->
            let outs =
              all_outcomes ~seed ~self:node (fun ctx -> App.on_timer ctx state id)
              |> List.map precompute
            in
            if Tcache.length cache.c_timer >= cache_cap then begin
              Tcache.reset cache.c_timer;
              forget cache
            end;
            if not (Tkey.equal key key) then spoil cache;
            Tcache.add cache.c_timer key outs;
            `Outcomes (node, outs))

  (* Rebuild a world around one node's outcome. Sends append to pending
     in action order through a reversed accumulator (the old
     implementation appended one element per Send, quadratically);
     timers keep the historical insertion-ordered-unique list — the
     digest was order-sensitive, so canonicalizing into a set here
     would coarsen dedup classes, and timer lists are tiny anyway. *)
  let apply_outcome iw node (o : outcome) =
    let i_states = Nm.add node o.o_state iw.i_states in
    let i_sfp = Nm.add node o.o_fp iw.i_sfp in
    let sends_rev, i_timers =
      List.fold_left
        (fun (sends, timers) -> function
          | P_send { dst; msg; fp1; fp2 } ->
              ({ p_src = node; p_dst = dst; p_msg = msg; p_fp1 = fp1; p_fp2 = fp2 } :: sends,
               timers)
          | P_set id ->
              (sends, if List.mem (node, id) timers then timers else timers @ [ (node, id) ])
          | P_cancel id -> (sends, List.filter (fun e -> e <> (node, id)) timers))
        ([], iw.i_timers) o.o_acts
    in
    let i_pending =
      match sends_rev with [] -> iw.i_pending | _ -> iw.i_pending @ List.rev sends_rev
    in
    { iw with i_states; i_sfp; i_pending; i_timers }

  (* All successor worlds of [iw], as (step, world) pairs, in exactly
     the old recursive branching order: deliveries (then the optional
     drop) of each pending message in order, then armed timers, then
     generic-node injections. *)
  let successors cache ~seed ~include_drops ~generic_node iw =
    let acc = ref [] in
    let add step w = acc := (step, w) :: !acc in
    List.iteri
      (fun i p ->
        let kind = App.msg_kind p.p_msg in
        let without = { iw with i_pending = remove_nth i iw.i_pending } in
        let step = Deliver_step { src = p.p_src; dst = p.p_dst; kind } in
        (match cached_deliver cache ~seed without ~src:p.p_src ~dst:p.p_dst p.p_msg with
        | `Unchanged -> add step without
        | `Outcomes (node, outs) ->
            List.iter (fun o -> add step (apply_outcome without node o)) outs);
        if include_drops then add (Drop_step { src = p.p_src; dst = p.p_dst; kind }) without)
      iw.i_pending;
    List.iter
      (fun (node, id) ->
        let step = Timer_step { node; id } in
        match cached_timer cache ~seed iw ~node ~id with
        | `Unchanged -> add step iw
        | `Outcomes (node, outs) -> List.iter (fun o -> add step (apply_outcome iw node o)) outs)
      iw.i_timers;
    if generic_node then
      Nm.iter
        (fun dst state ->
          List.iter
            (fun (sender, msg) ->
              let kind = App.msg_kind msg in
              let step = Generic_step { dst; kind } in
              match cached_deliver cache ~seed iw ~src:sender ~dst msg with
              | `Unchanged -> add step iw
              | `Outcomes (node, outs) ->
                  List.iter (fun o -> add step (apply_outcome iw node o)) outs)
            (App.generic_msgs state))
        iw.i_states;
    List.rev !acc

  (* ---------- Worklist exploration ---------- *)

  type frontier_item = { fw : iworld; fpath : step list (* reversed *) }

  (* One in-order pass per level: each frontier item is checked against
     the budget, deduplicated, counted, checked against every property
     and expanded, before the next item is looked at. Truncation is a
     one-way latch, so once the budget is spent no later item of any
     level is keyed or expanded. *)
  let explore_levels { max_worlds; include_drops; generic_node; seed; depth; early_stop } cache
      root =
    let hits0 = cache.c_hits and lookups0 = cache.c_lookups in
    (* Keyed by first lane, holding every second lane seen under it.
       Small to start and grown on demand: a steering explore visits a
       handful of worlds, and a table past the minor heap's size limit
       would be allocated straight on the major heap on every call. *)
    let visited : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let collisions = ref 0 in
    let violations = ref [] in
    let explored = ref 0 in
    let deduped = ref 0 in
    let truncated = ref false in
    let liveness =
      List.filter (fun (p : _ Core.Property.t) -> p.kind = Core.Property.Liveness) App.properties
    in
    let liveness_sat : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let is_new iw =
      let k1, k2 = world_key iw in
      match Hashtbl.find_opt visited k1 with
      | Some lane2 when List.mem k2 !lane2 -> false
      | Some lane2 ->
          incr collisions;
          lane2 := k2 :: !lane2;
          true
      | None ->
          Hashtbl.add visited k1 (ref [ k2 ]);
          true
    in
    let frontier = ref [ { fw = root; fpath = [] } ] in
    let level = ref 0 in
    let continue = ref true in
    while !continue do
      let d = !level in
      let expand = d < depth in
      let next = ref [] in
      List.iter
        (fun item ->
          if !explored >= max_worlds then truncated := true
          else if not (is_new item.fw) then incr deduped
          else begin
            incr explored;
            let view = view_of_iworld item.fw in
            List.iter
              (fun (p : _ Core.Property.t) ->
                violations :=
                  { property = p.name; path = List.rev item.fpath; at_depth = d } :: !violations)
              (Core.Property.check App.properties view);
            List.iter
              (fun (p : _ Core.Property.t) ->
                if p.holds view then Hashtbl.replace liveness_sat p.name ())
              liveness;
            if expand then
              List.iter
                (fun (step, w') -> next := { fw = w'; fpath = step :: item.fpath } :: !next)
                (successors cache ~seed ~include_drops ~generic_node item.fw)
          end)
        !frontier;
      frontier := List.rev !next;
      if early_stop && d >= 1 && !violations <> [] then continue := false
      else if d >= depth || !frontier = [] then continue := false
      else incr level
    done;
    let liveness_unmet =
      List.filter_map
        (fun (p : _ Core.Property.t) ->
          if Hashtbl.mem liveness_sat p.name then None else Some p.name)
        liveness
    in
    ( !level,
      {
        violations = List.rev !violations;
        worlds_explored = !explored;
        worlds_deduped = !deduped;
        liveness_unmet;
        truncated = !truncated;
        outcomes_cached = cache.c_hits - hits0;
        fingerprint_collisions = !collisions;
      },
      cache.c_lookups - lookups0 )

  let remember_recent cache root m =
    cache.c_recent.(cache.c_recent_next) <- Some (root, m);
    cache.c_recent_next <- (cache.c_recent_next + 1) mod recent_slots

  (* A remembered explore, replayed as a real re-explore would run it:
     every lookup hits. *)
  let replay cache m =
    cache.c_hits <- cache.c_hits + m.m_lookups;
    cache.c_lookups <- cache.c_lookups + m.m_lookups;
    (m.m_level, { m.m_result with outcomes_cached = m.m_lookups }, m.m_lookups)

  (* The memo sits in front of the one search: a caller's world value
     seen lately, else an equal root under the same parameters, else
     a real explore, remembered unless a lookup it made was lost. *)
  let run params cache root =
    if params.depth < 0 then invalid_arg "Explorer.explore: negative depth";
    if params.max_worlds < 0 then invalid_arg "Explorer.explore: negative max_worlds";
    match cache with
    | None -> explore_levels params (create_cache ()) (iworld_of_world root)
    | Some cache -> (
        let recent =
          Array.find_map
            (function
              | Some (w, m) when w == root && same_params m.m_params params -> Some m
              | Some _ | None -> None)
            cache.c_recent
        in
        match recent with
        | Some m -> replay cache m
        | None -> (
            let iw = iworld_of_world root in
            let k1, k2 = world_key iw in
            let slot = k1 land (memo_slots - 1) in
            match cache.c_memo.(slot) with
            | Some m
              when Int.equal m.m_k1 k1 && Int.equal m.m_k2 k2 && same_params m.m_params params
                   && same_root m.m_root iw ->
                remember_recent cache root m;
                replay cache m
            | Some _ | None ->
                let spoiled0 = cache.c_spoiled in
                let ((level, result, lookups) as explored) = explore_levels params cache iw in
                if Int.equal cache.c_spoiled spoiled0 then begin
                  let m =
                    {
                      m_root = iw;
                      m_k1 = k1;
                      m_k2 = k2;
                      m_params = params;
                      m_level = level;
                      m_result = result;
                      m_lookups = lookups;
                    }
                  in
                  cache.c_memo.(slot) <- Some m;
                  remember_recent cache root m
                end;
                explored))

  (* Per-call profiling into a metrics registry.  Counters are
     deterministic per seed; anything derived from the wall clock
     (phase timing, worlds/s) is registered volatile so it never leaks
     into a deterministic export. *)
  let record_obs reg ~phase ~wall (r : result) ~lookups =
    let labels = [ ("phase", phase) ] in
    let c name = Obs.Registry.counter reg ~name ~labels in
    Obs.Registry.incr (c "mc_explores");
    Obs.Registry.incr ~by:r.worlds_explored (c "mc_worlds_explored");
    Obs.Registry.incr ~by:r.worlds_deduped (c "mc_worlds_deduped");
    Obs.Registry.incr ~by:r.outcomes_cached (c "mc_outcomes_cached");
    Obs.Registry.incr ~by:r.fingerprint_collisions (c "mc_fingerprint_collisions");
    if lookups > 0 then
      Obs.Registry.set
        (Obs.Registry.gauge reg ~name:"mc_cache_hit_rate" ~labels)
        (float_of_int r.outcomes_cached /. float_of_int lookups);
    Obs.Registry.observe
      (Obs.Registry.histogram ~volatile:true reg ~name:"mc_explore_wall_ms" ~labels ~lo:0.
         ~hi:10_000. ~buckets:20)
      (wall *. 1000.);
    if wall > 0. then
      Obs.Registry.set
        (Obs.Registry.gauge ~volatile:true reg ~name:"mc_worlds_per_sec" ~labels)
        (float_of_int r.worlds_explored /. wall)

  let explore ?(max_worlds = 20_000) ?(include_drops = false) ?(generic_node = false) ?(seed = 7)
      ?cache ?obs ?(obs_phase = "explore") ~depth root =
    let t0 = if obs = None then 0. else Unix.gettimeofday () in
    let _, result, lookups =
      run { max_worlds; include_drops; generic_node; seed; depth; early_stop = false } cache root
    in
    (match obs with
    | None -> ()
    | Some reg ->
        record_obs reg ~phase:obs_phase ~wall:(Unix.gettimeofday () -. t0) result ~lookups);
    result

  (* Single-pass replacement for restart-per-depth iterative deepening:
     level-synchronous search stops at the end of the first level (>= 1)
     that has surfaced a violation, which is exactly the state the old
     implementation reached by re-exploring at depth 1, 2, … *)
  let iterative ?(max_worlds = 20_000) ?(include_drops = false) ?(generic_node = false)
      ?(seed = 7) ?cache ?obs ?(obs_phase = "iterative") ~max_depth world =
    if max_depth < 1 then invalid_arg "Explorer.iterative: max_depth must be >= 1";
    let t0 = if obs = None then 0. else Unix.gettimeofday () in
    let stop_level, result, lookups =
      run
        { max_worlds; include_drops; generic_node; seed; depth = max_depth; early_stop = true }
        cache world
    in
    (match obs with
    | None -> ()
    | Some reg ->
        record_obs reg ~phase:obs_phase ~wall:(Unix.gettimeofday () -. t0) result ~lookups);
    let depth = if result.violations <> [] then max 1 stop_level else max_depth in
    (depth, result)

  let first_steps_to_violation result =
    List.sort_uniq compare
      (List.filter_map
         (fun v -> match v.path with [] -> None | s :: _ -> Some s)
         result.violations)
end
