(* Reference implementation of consequence prediction, kept verbatim
   from before the fingerprinted worklist rewrite of {!Explorer}.

   It digests every world by pretty-printing it through [Format] into
   an MD5 and explores by recursive DFS with restart-per-depth
   iterative deepening. It exists only as an oracle: the differential
   suite ([test_mc_diff]) pins the rewritten explorer's verdicts
   against it, and the explorer benchmark reports speedups relative to
   it. Do not use it from production paths. *)

module Make (App : Proto.App_intf.APP) = struct
  type world = {
    states : App.state Proto.Node_id.Map.t;
    pending : (Proto.Node_id.t * Proto.Node_id.t * App.msg) list;
    timers : (Proto.Node_id.t * string) list;
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
  }

  let pp_step ppf = function
    | Deliver_step { src; dst; kind } ->
        Format.fprintf ppf "deliver(%s %a->%a)" kind Proto.Node_id.pp src Proto.Node_id.pp dst
    | Drop_step { src; dst; kind } ->
        Format.fprintf ppf "drop(%s %a->%a)" kind Proto.Node_id.pp src Proto.Node_id.pp dst
    | Timer_step { node; id } -> Format.fprintf ppf "timer(%a.%s)" Proto.Node_id.pp node id
    | Generic_step { dst; kind } -> Format.fprintf ppf "generic(%s ->%a)" kind Proto.Node_id.pp dst

  let world_of_view ?(timers = []) (view : (App.state, App.msg) Proto.View.t) =
    {
      states =
        List.fold_left (fun m (id, s) -> Proto.Node_id.Map.add id s m) Proto.Node_id.Map.empty
          view.nodes;
      pending = Proto.View.inflight view;
      timers;
    }

  let view_of_world w : (App.state, App.msg) Proto.View.t =
    Proto.View.v ~time:Dsim.Vtime.zero ~nodes:(Proto.Node_id.Map.bindings w.states)
      ~inflight:w.pending

  let digest w =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Proto.Node_id.Map.iter
      (fun id s -> Format.fprintf ppf "%a=%a;" Proto.Node_id.pp id App.pp_state s)
      w.states;
    List.iter
      (fun (a, b, m) ->
        Format.fprintf ppf "%a>%a:%a;" Proto.Node_id.pp a Proto.Node_id.pp b App.pp_msg m)
      w.pending;
    List.iter (fun (n, id) -> Format.fprintf ppf "T%a.%s;" Proto.Node_id.pp n id) w.timers;
    Format.pp_print_flush ppf ();
    Digest.string (Buffer.contents buf)

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

  let apply_actions w node actions =
    List.fold_left
      (fun w action ->
        match action with
        | Proto.Action.Send { dst; msg } -> { w with pending = w.pending @ [ (node, dst, msg) ] }
        | Proto.Action.Set_timer { id; _ } ->
            if List.mem (node, id) w.timers then w
            else { w with timers = w.timers @ [ (node, id) ] }
        | Proto.Action.Cancel_timer id ->
            { w with timers = List.filter (fun e -> e <> (node, id)) w.timers }
        | Proto.Action.Note _ -> w)
      w actions

  (* Outcomes of delivering [msg] from [src] at [dst] in [w] (with the
     message already removed): one world per (handler, choice-combo). *)
  let deliver_outcomes ~seed w ~src ~dst msg =
    match Proto.Node_id.Map.find_opt dst w.states with
    | None -> [ w ]
    | Some state -> (
        match Proto.Handler.applicable App.receive state ~src msg with
        | [] -> [ w ]
        | handlers ->
            List.concat_map
              (fun (h : _ Proto.Handler.t) ->
                all_outcomes ~seed ~self:dst (fun ctx -> h.handle ctx state ~src msg)
                |> List.map (fun (state', actions) ->
                       apply_actions
                         { w with states = Proto.Node_id.Map.add dst state' w.states }
                         dst actions))
              handlers)

  let timer_outcomes ~seed w ~node ~id =
    match Proto.Node_id.Map.find_opt node w.states with
    | None -> [ w ]
    | Some state ->
        all_outcomes ~seed ~self:node (fun ctx -> App.on_timer ctx state id)
        |> List.map (fun (state', actions) ->
               apply_actions { w with states = Proto.Node_id.Map.add node state' w.states } node
                 actions)

  let rec iterative_from ~explore ~max_depth depth world =
    let result = explore ~depth world in
    if result.violations <> [] || depth >= max_depth then (depth, result)
    else iterative_from ~explore ~max_depth (depth + 1) world

  let first_steps_to_violation result =
    List.sort_uniq compare
      (List.filter_map
         (fun v -> match v.path with [] -> None | s :: _ -> Some s)
         result.violations)

  let explore ?(max_worlds = 20_000) ?(include_drops = false) ?(generic_node = false) ?(seed = 7)
      ~depth root =
    if depth < 0 then invalid_arg "Explorer.explore: negative depth";
    let visited : (Digest.t, unit) Hashtbl.t = Hashtbl.create 1024 in
    let violations = ref [] in
    let explored = ref 0 in
    let deduped = ref 0 in
    let truncated = ref false in
    let liveness = List.filter (fun (p : _ Core.Property.t) -> p.kind = Core.Property.Liveness) App.properties in
    let liveness_sat : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let rec go w path d =
      if !explored >= max_worlds then truncated := true
      else begin
        let dg = digest w in
        if Hashtbl.mem visited dg then incr deduped
        else begin
          Hashtbl.replace visited dg ();
          incr explored;
          let view = view_of_world w in
          List.iter
            (fun (p : _ Core.Property.t) ->
              violations :=
                { property = p.name; path = List.rev path; at_depth = d } :: !violations)
            (Core.Property.check App.properties view);
          List.iter
            (fun (p : _ Core.Property.t) ->
              if p.holds view then Hashtbl.replace liveness_sat p.name ())
            liveness;
          if d < depth then begin
            (* Deliveries (and optionally drops) of each pending message. *)
            List.iteri
              (fun i (src, dst, msg) ->
                let kind = App.msg_kind msg in
                let without = { w with pending = remove_nth i w.pending } in
                List.iter
                  (fun w' -> go w' (Deliver_step { src; dst; kind } :: path) (d + 1))
                  (deliver_outcomes ~seed without ~src ~dst msg);
                if include_drops then go without (Drop_step { src; dst; kind } :: path) (d + 1))
              w.pending;
            (* Armed timers. *)
            List.iter
              (fun (node, id) ->
                List.iter
                  (fun w' -> go w' (Timer_step { node; id } :: path) (d + 1))
                  (timer_outcomes ~seed w ~node ~id))
              w.timers;
            (* The generic node sends anything from the app's alphabet. *)
            if generic_node then
              Proto.Node_id.Map.iter
                (fun dst state ->
                  List.iter
                    (fun (sender, msg) ->
                      let kind = App.msg_kind msg in
                      List.iter
                        (fun w' -> go w' (Generic_step { dst; kind } :: path) (d + 1))
                        (deliver_outcomes ~seed w ~src:sender ~dst msg))
                    (App.generic_msgs state))
                w.states
          end
        end
      end
    in
    go root [] 0;
    let liveness_unmet =
      List.filter_map
        (fun (p : _ Core.Property.t) ->
          if Hashtbl.mem liveness_sat p.name then None else Some p.name)
        liveness
    in
    {
      violations = List.rev !violations;
      worlds_explored = !explored;
      worlds_deduped = !deduped;
      liveness_unmet;
      truncated = !truncated;
    }

  let iterative ?max_worlds ?include_drops ?generic_node ?seed ~max_depth world =
    if max_depth < 1 then invalid_arg "Explorer.iterative: max_depth must be >= 1";
    iterative_from
      ~explore:(fun ~depth w -> explore ?max_worlds ?include_drops ?generic_node ?seed ~depth w)
      ~max_depth 1 world
end
