(* Checkpoint generations retained. *)
let history = 16

module Make (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)
  module Ex = Mc.Explorer.Make (App)
  module St = Mc.Steering.Make (App)

  type checkpoint = {
    taken_at : Dsim.Vtime.t;
    view : (App.state, App.msg) Proto.View.t;
    content : int;
        (* equal to the previous checkpoint's iff this one holds the
           same node list and the same in-flight messages *)
  }

  (* A node's last explored world and what it was built from. *)
  type node_world = {
    own : App.state;
    built_from : int;  (* the checkpoint's content number *)
    clocks : (Proto.Node_id.t * int) list;  (* every skewed clock's fingerprint *)
    world : Ex.world;
  }

  type live_veto = { veto : St.veto; name : string; expires : Dsim.Vtime.t }

  type report = {
    checkpoints_taken : int;
    steering_rounds : int;
    vetoes_installed : int;
    cannot_steer : int;
    worlds_explored : int;
    outcomes_cached : int;
    fingerprint_collisions : int;
    checkpoint_bytes : int;
  }

  type t = {
    cfg : Config.t;
    eng : E.t;
    neighbors : App.state -> Proto.Node_id.t list;
    codec : App.state Wire.Codec.t option;
    mutable checkpoint_bytes : int;
    mutable checkpoints : checkpoint list;  (* newest first *)
    mutable next_checkpoint : Dsim.Vtime.t;
    mutable next_steer : Dsim.Vtime.t;
    mutable vetoes : live_veto list;
    mutable verdicts : (Dsim.Vtime.t * St.verdict) list;
    mutable n_checkpoints : int;
    mutable n_rounds : int;
    mutable n_vetoes : int;
    mutable n_cannot : int;
    mutable n_worlds : int;
    mutable n_cached : int;
    mutable n_collisions : int;
    (* Persisted across steering rounds: consecutive rounds explore
       near-identical neighbourhoods, which is the transposition
       cache's best case. *)
    cache : St.Ex.cache;
    worlds : (int, node_world) Hashtbl.t;
        (* per node: handing the explorer the same world value again
           lets its root memo answer without keying the world *)
    obs : Obs.Registry.t option;
  }

  (* Mirror the report counters into the registry as gauges; called
     wherever they move so an export mid-run is current. *)
  let publish_obs t =
    match t.obs with
    | None -> ()
    | Some reg ->
        let g name v =
          Obs.Registry.set (Obs.Registry.gauge reg ~name ~labels:[]) (float_of_int v)
        in
        g "crystal_checkpoints_taken" t.n_checkpoints;
        g "crystal_steering_rounds" t.n_rounds;
        g "crystal_vetoes_installed" t.n_vetoes;
        g "crystal_cannot_steer" t.n_cannot;
        g "crystal_worlds_explored" t.n_worlds;
        g "crystal_outcomes_cached" t.n_cached;
        g "crystal_fingerprint_collisions" t.n_collisions;
        g "crystal_checkpoint_bytes" t.checkpoint_bytes;
        g "crystal_live_vetoes" (List.length t.vetoes);
        g "crystal_degraded_nodes" (E.degraded_nodes t.eng)

  (* The engine hands out the same node list while no node changed,
     and an in-flight message keeps its value while queued, so
     physical equality spots an unchanged snapshot cheaply. *)
  let same_content (a : (App.state, App.msg) Proto.View.t) (b : _ Proto.View.t) =
    a.nodes == b.nodes
    && List.equal
         (fun (s, d, m) (s', d', m') ->
           Proto.Node_id.equal s s' && Proto.Node_id.equal d d' && m == m')
         (Proto.View.inflight a) (Proto.View.inflight b)

  let collect_checkpoint t =
    let view = E.global_view t.eng in
    let content =
      match t.checkpoints with
      | prev :: _ -> if same_content prev.view view then prev.content else prev.content + 1
      | [] -> 0
    in
    t.checkpoints <- { taken_at = E.now t.eng; view; content } :: t.checkpoints;
    t.n_checkpoints <- t.n_checkpoints + 1;
    (* When the app provides a state codec, checkpoint dissemination is
       charged to the emulated network: each node ships its serialized
       state to every neighbour, contending with application traffic on
       its access link (paper §3.3.2's communication-overhead limit). *)
    (match t.codec with
    | None -> ()
    | Some codec ->
        let now_s = Dsim.Vtime.to_seconds (E.now t.eng) in
        List.iter
          (fun (id, state) ->
            let per_copy = Wire.Codec.size codec state + 32 in
            let copies = max 1 (List.length (t.neighbors state)) in
            let bytes = per_copy * copies in
            t.checkpoint_bytes <- t.checkpoint_bytes + bytes;
            Net.Netem.occupy_access (E.netem t.eng)
              ~endpoint:(Proto.Node_id.to_int id) ~now:now_s ~bytes)
          view.Proto.View.nodes);
    (* Trim history. *)
    let rec take n = function
      | [] -> []
      | c :: rest -> if n = 0 then [] else c :: take (n - 1) rest
    in
    t.checkpoints <- take history t.checkpoints;
    publish_obs t

  let attach ?(config = Config.default) ?codec ?obs ~neighbors eng =
    let cfg = Config.validate config in
    (* One codec path for both byte-accounting consumers: an app that
       declared how its state persists (App.durable) gets checkpoint
       traffic charged with that same codec unless the caller overrides. *)
    let codec =
      match codec with
      | Some _ -> codec
      | None -> Option.map (fun (d : _ Proto.Durability.t) -> d.codec) App.durable
    in
    let t =
      {
        cfg;
        eng;
        neighbors;
        codec;
        checkpoint_bytes = 0;
        checkpoints = [];
        next_checkpoint = Dsim.Vtime.add (E.now eng) cfg.checkpoint_period;
        next_steer = Dsim.Vtime.add (E.now eng) cfg.steer_period;
        vetoes = [];
        verdicts = [];
        n_checkpoints = 0;
        n_rounds = 0;
        n_vetoes = 0;
        n_cannot = 0;
        n_worlds = 0;
        n_cached = 0;
        n_collisions = 0;
        cache = St.Ex.create_cache ();
        worlds = Hashtbl.create 16;
        obs;
      }
    in
    (* The controller snapshots immediately on attach so a usable (if
       possibly empty) view exists as soon as the collection delay has
       elapsed. *)
    collect_checkpoint t;
    t

  let engine t = t.eng

  (* A checkpoint is usable once the emulated collection delay has
     elapsed — until then the controller is still gathering it. *)
  let latest_checkpoint t =
    let now = E.now t.eng in
    List.find_opt
      (fun c -> Dsim.Vtime.diff now c.taken_at >= t.cfg.checkpoint_delay)
      t.checkpoints

  let latest_view t = Option.map (fun c -> c.view) (latest_checkpoint t)

  let hood_view t (stale : (App.state, App.msg) Proto.View.t) ~of_node own_state =
    let hood = Proto.Node_id.Set.of_list (t.neighbors own_state) in
    let stale_neighbors = Proto.View.restrict stale hood in
    {
      stale_neighbors with
      Proto.View.time = E.now t.eng;
      nodes =
        (of_node, own_state)
        :: List.filter
             (fun (id, _) -> not (Proto.Node_id.equal id of_node))
             stale_neighbors.Proto.View.nodes;
    }

  let neighborhood_view t ~of_node =
    match (E.state_of t.eng of_node, latest_checkpoint t) with
    | Some own_state, Some c -> Some (hood_view t c.view ~of_node own_state)
    | None, _ | _, None -> None

  (* The world node [id] explores this round. It depends only on the
     node's own state (through [neighbors]), the checkpoint's content
     and the clock fingerprints, so while those stay put the last one
     is handed out again. *)
  let node_world t (c : checkpoint) ~clocks id own =
    let key = Proto.Node_id.to_int id in
    match Hashtbl.find_opt t.worlds key with
    | Some nw
      when nw.own == own && Int.equal nw.built_from c.content
           && List.equal
                (fun (n, fp) (n', fp') -> Proto.Node_id.equal n n' && Int.equal fp fp')
                nw.clocks clocks ->
        nw.world
    | Some _ | None ->
        let view = hood_view t c.view ~of_node:id own in
        (* Clock fingerprints of the nodes in the snapshot: a world
           explored while a neighbour's clock was skewed must not
           share a dedup class with the same states seen in sync. *)
        let world =
          Ex.world_of_view
            ~clocks:(List.filter (fun (n, _) -> List.mem_assoc n view.Proto.View.nodes) clocks)
            view
        in
        Hashtbl.replace t.worlds key { own; built_from = c.content; clocks; world };
        world

  let add_filter t lv =
    let v = lv.veto in
    E.add_filter t.eng ~name:lv.name (fun ~kind ~src ~dst ->
        String.equal kind v.St.kind
        && Proto.Node_id.equal src v.St.src
        && Proto.Node_id.equal dst v.St.dst)

  (* Runs on every tick: an install adds its own filter, so the
     engine's filters are rebuilt only when a veto has expired. *)
  let refresh_filters t =
    let now = E.now t.eng in
    let live lv = Dsim.Vtime.(now < lv.expires) in
    if not (List.for_all live t.vetoes) then begin
      t.vetoes <- List.filter live t.vetoes;
      E.clear_filters t.eng;
      List.iter (add_filter t) t.vetoes
    end

  let install_veto t veto =
    let already =
      List.exists (fun lv -> lv.veto = veto) t.vetoes
    in
    if not already then begin
      let lv =
        {
          veto;
          name = Format.asprintf "%a" St.pp_veto veto;
          expires = Dsim.Vtime.add (E.now t.eng) t.cfg.filter_ttl;
        }
      in
      t.vetoes <- lv :: t.vetoes;
      add_filter t lv;
      t.n_vetoes <- t.n_vetoes + 1
    end

  (* One steering round: run consequence prediction from each live
     node's neighbourhood snapshot, all cut from the one latest usable
     checkpoint; install every veto judged safe. *)
  let steer t =
    t.n_rounds <- t.n_rounds + 1;
    (match latest_checkpoint t with
    | None -> ()
    | Some c ->
        let clocks = E.clock_fingerprints t.eng in
        List.iter
          (fun (id, own) ->
            let world = node_world t c ~clocks id own in
            let verdict, stats =
              St.decide_with_stats ~max_worlds:t.cfg.max_worlds ~cache:t.cache ?obs:t.obs
                ~depth:t.cfg.steer_depth world
            in
            t.n_worlds <- t.n_worlds + stats.St.worlds_explored;
            t.n_cached <- t.n_cached + stats.St.outcomes_cached;
            t.n_collisions <- t.n_collisions + stats.St.fingerprint_collisions;
            (match verdict with
            | St.No_violation -> ()
            | St.Steer vetoes ->
                t.verdicts <- (E.now t.eng, verdict) :: t.verdicts;
                List.iter (install_veto t) vetoes
            | St.Cannot_steer _ ->
                t.verdicts <- (E.now t.eng, verdict) :: t.verdicts;
                t.n_cannot <- t.n_cannot + 1))
          (E.live_nodes t.eng));
    refresh_filters t;
    publish_obs t

  let tick t =
    let now = E.now t.eng in
    if Dsim.Vtime.(t.next_checkpoint <= now) then begin
      collect_checkpoint t;
      t.next_checkpoint <- Dsim.Vtime.add now t.cfg.checkpoint_period
    end;
    if Dsim.Vtime.(t.next_steer <= now) then begin
      steer t;
      t.next_steer <- Dsim.Vtime.add now t.cfg.steer_period
    end
    else refresh_filters t

  let run_for t duration =
    if duration < 0. then invalid_arg "Crystal.run_for: negative duration";
    let slice = Float.min t.cfg.checkpoint_period t.cfg.steer_period /. 2. in
    let target = Dsim.Vtime.add (E.now t.eng) duration in
    let continue = ref true in
    while !continue do
      let now = E.now t.eng in
      if Dsim.Vtime.(target <= now) then continue := false
      else begin
        let step = Float.min slice (Dsim.Vtime.diff target now) in
        E.run_for t.eng step;
        tick t
      end
    done

  let report t =
    {
      checkpoints_taken = t.n_checkpoints;
      steering_rounds = t.n_rounds;
      vetoes_installed = t.n_vetoes;
      cannot_steer = t.n_cannot;
      worlds_explored = t.n_worlds;
      outcomes_cached = t.n_cached;
      fingerprint_collisions = t.n_collisions;
      checkpoint_bytes = t.checkpoint_bytes;
    }

  let verdict_log t = List.rev t.verdicts
end
