(** RandTree, choice-exposed variant (paper §3.1, §4): the same wire
    protocol as {!Randtree_baseline}, but the join-forwarding policy is
    gone. The join logic is split into four small guarded handlers —
    the NFA style — and the only genuinely unresolved decision, {e
    which child to forward a join to}, is exposed to the runtime as a
    labelled choice with network-model features. *)

module C = Randtree_common

module type PARAMS = Randtree_baseline.PARAMS

module Default_params = Randtree_baseline.Default_params

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = C.msg

  val parent_of : state -> Proto.Node_id.t option
  val depth_field : state -> int
  val is_joined : state -> bool
  val children_of : state -> Proto.Node_id.t list

  val forward_label : string
  (** The label of the exposed forwarding choice, for resolvers and
      tests. *)

  val forward_schema : Core.Choice.schema
  (** Its features: [age_s] since last heard from, predicted [rtt_ms]. *)
end = struct
  type msg = C.msg

  type state = {
    self : Proto.Node_id.t;
    parent : Proto.Node_id.t option;
    parent_seen : float;
    depth : int;
    children : (Proto.Node_id.t * float) list;
    joined : bool;
  }

  let name = "randtree-choice"
  let forward_label = "join.forward"
  let forward_schema =
    Core.Choice.schema [ "age_s"; "rtt_ms" ]
  let equal_state (a : state) b = a = b
  let msg_kind = C.msg_kind
  let msg_bytes = C.msg_bytes
  let pp_msg = C.pp_msg
  let msg_codec = Some C.msg_codec
  let validate = None
  let durable = None
  let degraded = None
  let priority = None

  let pp_state ppf st =
    Format.fprintf ppf "{p=%a d=%d c=[%a] j=%b}"
      (Format.pp_print_option Proto.Node_id.pp ~none:(fun ppf () -> Format.fprintf ppf "-"))
      st.parent st.depth
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Proto.Node_id.pp)
      (List.map fst st.children)
      st.joined

  (* Same equivalence classes as [pp_state] above, without formatting.
     [hash_param] with generous bounds so long child lists are not
     truncated into accidental hash-equality. *)
  let fingerprint =
    Some
      (fun st ->
        Hashtbl.hash_param 64 256 (st.parent, st.depth, List.map fst st.children, st.joined))

  let parent_of st = st.parent
  let depth_field st = st.depth
  let is_joined st = st.joined
  let children_of st = List.map fst st.children
  let is_root st = Proto.Node_id.equal st.self P.root
  let now_s (ctx : Proto.Ctx.t) = Dsim.Vtime.to_seconds ctx.now
  let child_mem st id = List.mem_assoc id st.children

  let is_parent st id =
    match st.parent with Some p -> Proto.Node_id.equal p id | None -> false

  let touch_child ctx st id =
    List.map
      (fun (c, seen) -> if Proto.Node_id.equal c id then (c, now_s ctx) else (c, seen))
      st.children

  let base_timers =
    [
      Proto.Action.set_timer ~id:"ping" ~after:C.Timing.ping_period;
      Proto.Action.set_timer ~id:"sweep" ~after:C.Timing.sweep_period;
    ]

  let init (ctx : Proto.Ctx.t) =
    let root = Proto.Node_id.equal ctx.self P.root in
    let st =
      {
        self = ctx.self;
        parent = None;
        parent_seen = now_s ctx;
        depth = (if root then 1 else 0);
        children = [];
        joined = root;
      }
    in
    if root then (st, base_timers)
    else
      ( st,
        Proto.Action.send ~dst:P.root (C.Join { origin = ctx.self })
        :: Proto.Action.set_timer ~id:"retry" ~after:C.Timing.join_retry
        :: base_timers )

  (* --- four small join handlers instead of one monolith --- *)

  let join_origin msg = match msg with C.Join { origin } -> Some origin | _ -> None

  let h_join_relay =
    Proto.Handler.v ~name:"join/relay"
      ~guard:(fun st ~src:_ msg -> join_origin msg <> None && not st.joined)
      (fun _ctx st ~src:_ msg ->
        match join_origin msg with
        | Some origin when not (Proto.Node_id.equal origin st.self) ->
            (st, [ Proto.Action.send ~dst:P.root (C.Join { origin }) ])
        | Some _ | None -> (st, []))

  let h_join_duplicate =
    Proto.Handler.v ~name:"join/duplicate"
      ~guard:(fun st ~src:_ msg ->
        match join_origin msg with
        | Some o -> st.joined && child_mem st o && not (is_parent st o)
        | None -> false)
      (fun ctx st ~src:_ msg ->
        match join_origin msg with
        | Some origin ->
            ( { st with children = touch_child ctx st origin },
              [ Proto.Action.send ~dst:origin (C.Join_reply { depth = st.depth + 1 }) ] )
        | None -> (st, []))

  let h_join_accept =
    Proto.Handler.v ~name:"join/accept"
      ~guard:(fun st ~src:_ msg ->
        match join_origin msg with
        | Some o ->
            st.joined && (not (child_mem st o))
            && (not (is_parent st o))
            && (not (Proto.Node_id.equal o st.self))
            && List.length st.children < P.max_children
        | None -> false)
      (fun ctx st ~src:_ msg ->
        match join_origin msg with
        | Some origin ->
            ( { st with children = (origin, now_s ctx) :: st.children },
              [ Proto.Action.send ~dst:origin (C.Join_reply { depth = st.depth + 1 }) ] )
        | None -> (st, []))

  (* The exposed choice: which child should serve this join? Features
     give the runtime freshness and predicted network cost; the
     resolver — random, greedy, bandit or CrystalBall lookahead —
     supplies the policy the baseline hard-codes. *)
  let h_join_forward =
    Proto.Handler.v ~name:"join/forward"
      ~guard:(fun st ~src:_ msg ->
        match join_origin msg with
        | Some o ->
            st.joined && (not (child_mem st o))
            && (not (is_parent st o))
            && (not (Proto.Node_id.equal o st.self))
            && List.length st.children >= P.max_children
        | None -> false)
      (fun ctx st ~src:_ msg ->
        match join_origin msg with
        | Some origin ->
            let now = now_s ctx in
            let alternative (child, seen) =
              Core.Choice.alt
                ~features:
                  [| now -. seen; Proto.Ctx.predicted_ms ctx child |]
                child
            in
            let target =
              ctx.choose
                (Core.Choice.make ~label:forward_label ~schema:forward_schema
                   (List.map alternative st.children))
            in
            (st, [ Proto.Action.send ~dst:target (C.Join { origin }) ])
        | None -> (st, []))

  let h_join_reply =
    Proto.Handler.v ~name:"join_reply"
      ~guard:(fun _ ~src:_ msg -> match msg with C.Join_reply _ -> true | _ -> false)
      (fun ctx st ~src msg ->
        match msg with
        | C.Join_reply { depth } when (not st.joined) && not (child_mem st src) ->
            ( { st with parent = Some src; parent_seen = now_s ctx; depth; joined = true },
              [ Proto.Action.cancel_timer "retry" ] )
        | C.Join_reply _ | C.Join _ | C.Ping | C.Ping_ack _ -> (st, []))

  let h_ping_known =
    Proto.Handler.v ~name:"ping/known"
      ~guard:(fun st ~src msg -> msg = C.Ping && child_mem st src)
      (fun ctx st ~src _msg ->
        ( { st with children = touch_child ctx st src },
          [ Proto.Action.send ~dst:src (C.Ping_ack { depth = st.depth }) ] ))

  let h_ping_orphan =
    Proto.Handler.v ~name:"ping/orphan"
      ~guard:(fun st ~src msg ->
        msg = C.Ping && (not (child_mem st src)) && st.joined
        && List.length st.children < P.max_children)
      (fun ctx st ~src _msg ->
        ( { st with children = (src, now_s ctx) :: st.children },
          [ Proto.Action.send ~dst:src (C.Ping_ack { depth = st.depth }) ] ))

  let h_ping_ack =
    Proto.Handler.v ~name:"ping_ack"
      ~guard:(fun st ~src msg ->
        match msg with
        | C.Ping_ack _ -> (
            match st.parent with Some p -> Proto.Node_id.equal p src | None -> false)
        | C.Join _ | C.Join_reply _ | C.Ping -> false)
      (fun ctx st ~src:_ msg ->
        match msg with
        | C.Ping_ack { depth } -> ({ st with parent_seen = now_s ctx; depth = depth + 1 }, [])
        | C.Join _ | C.Join_reply _ | C.Ping -> (st, []))

  let receive =
    [
      h_join_relay;
      h_join_duplicate;
      h_join_accept;
      h_join_forward;
      h_join_reply;
      h_ping_known;
      h_ping_orphan;
      h_ping_ack;
    ]

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "retry" ->
        if st.joined then (st, [])
        else
          ( st,
            [
              Proto.Action.send ~dst:P.root (C.Join { origin = st.self });
              Proto.Action.set_timer ~id:"retry" ~after:C.Timing.join_retry;
            ] )
    | "ping" ->
        let pings =
          match st.parent with Some p -> [ Proto.Action.send ~dst:p C.Ping ] | None -> []
        in
        (st, pings @ [ Proto.Action.set_timer ~id:"ping" ~after:C.Timing.ping_period ])
    | "sweep" ->
        let now = now_s ctx in
        let children =
          List.filter (fun (_, seen) -> now -. seen <= C.Timing.peer_timeout) st.children
        in
        let st = { st with children } in
        let st, actions =
          match st.parent with
          | Some _ when (not (is_root st)) && now -. st.parent_seen > C.Timing.peer_timeout ->
              ( { st with parent = None; joined = false; depth = 0 },
                [
                  Proto.Action.send ~dst:P.root (C.Join { origin = st.self });
                  Proto.Action.set_timer ~id:"retry" ~after:C.Timing.join_retry;
                ] )
          | Some _ | None -> (st, [])
        in
        (st, actions @ [ Proto.Action.set_timer ~id:"sweep" ~after:C.Timing.sweep_period ])
    | _ -> (st, [])

  let objectives = C.objectives ~parent:parent_of ~joined:is_joined
  let properties = C.properties ~parent:parent_of ~joined:is_joined

  let generic_msgs st =
    if st.joined then
      let ghost = Proto.Node_id.of_int 97 in
      [ (ghost, C.Join { origin = ghost }) ]
    else []
end

module Default = Make (Default_params)
