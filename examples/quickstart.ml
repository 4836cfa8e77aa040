(* Quickstart: the whole programming model on one page.

   We build a tiny "work sharing" service in the paper's style:
   1. the protocol EXPOSES its one policy decision — which worker to
      offload a job to — as a labelled choice with features;
   2. it EXPOSES an objective — jobs completed;
   3. the runtime RESOLVES the choice: we run the same unchanged
      protocol under a random resolver and under predictive lookahead
      and watch the objective improve.

   Run with: dune exec examples/quickstart.exe *)

module Work_sharing = struct
  type msg = Job of { cost : float } | Done

  type state = {
    self : Proto.Node_id.t;
    speed : float;  (* jobs this node can absorb per second *)
    backlog : int;
    completed : int;
  }

  let name = "work-sharing"
  let equal_state (a : state) b = a = b
  let msg_kind = function Job _ -> "job" | Done -> "done"
  let msg_bytes = function Job _ -> 256 | Done -> 16
  let msg_codec = None
  let validate = None
  let durable = None
  let degraded = None
  let priority = None

  let pp_msg ppf = function
    | Job { cost } -> Format.fprintf ppf "job(%.1f)" cost
    | Done -> Format.fprintf ppf "done"

  let pp_state ppf st =
    Format.fprintf ppf "{backlog=%d completed=%d}" st.backlog st.completed

  let fingerprint = None

  (* Node 0 is the dispatcher; workers differ in speed. *)
  let init (ctx : Proto.Ctx.t) =
    let id = Proto.Node_id.to_int ctx.self in
    let speed = if id = 0 then 0. else float_of_int id in
    ( { self = ctx.self; speed; backlog = 0; completed = 0 },
      if id = 0 then [ Proto.Action.set_timer ~id:"dispatch" ~after:0.1 ] else [] )

  let receive =
    [
      Proto.Handler.v ~name:"job"
        ~guard:(fun _ ~src:_ m -> match m with Job _ -> true | Done -> false)
        (fun _ st ~src:_ _ ->
          (* Start servicing if idle; service time depends on speed. *)
          let start =
            if st.backlog = 0 then [ Proto.Action.set_timer ~id:"work" ~after:(1. /. st.speed) ]
            else []
          in
          ({ st with backlog = st.backlog + 1 }, start));
      Proto.Handler.v ~name:"done"
        ~guard:(fun _ ~src:_ m -> m = Done)
        (fun _ st ~src:_ _ -> (st, []));
    ]

  let workers = List.map Proto.Node_id.of_int [ 1; 2; 3 ]

  (* The offload choice's feature names, declared once. *)
  let schema = Core.Choice.schema [ "rtt_ms" ]

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "dispatch" ->
        (* THE exposed choice: which worker gets the next job? The
           features let any resolver reason about it; the protocol
           itself takes no position. *)
        let alternative w =
          Core.Choice.alt ~features:[| Proto.Ctx.predicted_ms ctx w |] w
        in
        let target =
          ctx.choose (Core.Choice.make ~label:"offload" ~schema (List.map alternative workers))
        in
        ( st,
          [
            Proto.Action.send ~dst:target (Job { cost = 1.0 });
            Proto.Action.set_timer ~id:"dispatch" ~after:0.4;
          ] )
    | "work" ->
        if st.backlog > 0 then
          let st = { st with backlog = st.backlog - 1; completed = st.completed + 1 } in
          let continue =
            if st.backlog > 0 then [ Proto.Action.set_timer ~id:"work" ~after:(1. /. st.speed) ]
            else []
          in
          (st, continue)
        else (st, [])
    | _ -> (st, [])

  (* The exposed objective: higher is better. *)
  let objectives : (state, msg) Proto.View.t Core.Objective.t list =
    [
      Core.Objective.v ~name:"throughput" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int st.completed) 0. view);
      Core.Objective.v ~name:"low-backlog" ~weight:0.5 (fun view ->
          Proto.View.fold (fun acc _ st -> acc -. float_of_int st.backlog) 0. view);
    ]

  let properties : (state, msg) Proto.View.t Core.Property.t list =
    [
      Core.Property.safety ~name:"sane-backlog" (fun view ->
          Proto.View.fold (fun ok _ st -> ok && st.backlog >= 0) true view);
    ]

  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Work_sharing)

let run resolver_name configure =
  (* Worker 3 is fast but far; worker 1 is slow but near — a resolver
     has something real to learn. *)
  let topology =
    Net.Topology.of_matrix
      (Array.init 4 (fun a ->
           Array.init 4 (fun b ->
               if a = b then Net.Linkprop.ideal
               else
                 let ms = 5. +. (10. *. float_of_int (a + b)) in
                 Net.Linkprop.v ~latency:(ms /. 1000.) ~bandwidth:1_000_000. ~loss:0.)))
  in
  let eng = E.create ~seed:1 ~topology () in
  configure eng;
  List.iter (E.spawn eng) (List.map Proto.Node_id.of_int [ 0; 1; 2; 3 ]);
  E.run_for eng 60.;
  let completed =
    Proto.View.fold (fun acc _ st -> acc + st.Work_sharing.completed) 0 (E.global_view eng)
  in
  Printf.printf "  %-20s completed %3d jobs (objective %.1f, %d choices resolved)\n"
    resolver_name completed (E.objective_score eng) (E.stats eng).decisions

let () =
  print_endline "Work-sharing quickstart: one protocol, three policies.";
  run "first (always w1)" (fun eng -> E.set_resolver eng Core.Resolver.first);
  run "random" (fun eng -> E.set_resolver eng Core.Resolver.random);
  run "lookahead" (fun eng ->
      E.set_lookahead eng { E.default_lookahead with horizon = 2.0; max_events = 200 });
  print_endline "\nThe protocol never changed - only the resolver did.";
  print_endline "That inversion is the paper's programming model."
