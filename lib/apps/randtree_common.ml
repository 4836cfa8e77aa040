(** Shared vocabulary of the two RandTree implementations: the wire
    protocol, tree measurements over global views, and the properties
    and objectives both variants expose. Keeping this out of the
    variant modules makes the paper's E1 code-metrics comparison read
    on exactly the code that differs: the policy logic. *)

type msg =
  | Join of { origin : Proto.Node_id.t }
      (** joining request; [origin] survives forwarding hops *)
  | Join_reply of { depth : int }  (** acceptance: sender is the parent *)
  | Ping  (** child -> parent heartbeat *)
  | Ping_ack of { depth : int }  (** parent -> child, carries parent depth *)

let msg_kind = function
  | Join _ -> "join"
  | Join_reply _ -> "join_reply"
  | Ping -> "ping"
  | Ping_ack _ -> "ping_ack"

let msg_bytes = function
  | Join _ -> 48
  | Join_reply _ -> 32
  | Ping -> 16
  | Ping_ack _ -> 24

let pp_msg ppf = function
  | Join { origin } -> Format.fprintf ppf "join(%a)" Proto.Node_id.pp origin
  | Join_reply { depth } -> Format.fprintf ppf "join_reply(d=%d)" depth
  | Ping -> Format.fprintf ppf "ping"
  | Ping_ack { depth } -> Format.fprintf ppf "ping_ack(d=%d)" depth

let msg_codec =
  let open Wire.Codec in
  let node = conv Proto.Node_id.to_int Proto.Node_id.of_int int in
  tagged
    (function
      | Join { origin } -> (0, encode node origin)
      | Join_reply { depth } -> (1, encode int depth)
      | Ping -> (2, "")
      | Ping_ack { depth } -> (3, encode int depth))
    (fun tag payload ->
      match tag with
      | 0 -> Result.map (fun origin -> Join { origin }) (decode node payload)
      | 1 -> Result.map (fun depth -> Join_reply { depth }) (decode int payload)
      | 2 -> if String.equal payload "" then Ok Ping else Error "ping carries a payload"
      | 3 -> Result.map (fun depth -> Ping_ack { depth }) (decode int payload)
      | t -> Error (Printf.sprintf "unknown randtree tag %d" t))

(** Protocol timing shared by both variants. *)
module Timing = struct
  let join_retry = 2.0
  let ping_period = 1.0
  let sweep_period = 2.0
  let peer_timeout = 4.5
end

(** Tree measurements, parametric in how to read a node's parent link
    so they work on either variant's state type. *)
module Measure = struct
  type chain = Depth of int | Left_view | Cycle

  (* Walks [id]'s parent links. [Depth d] when the chain reaches a
     parentless node (the root, at depth 1); [Left_view] when it exits
     the view (e.g. the parent crashed); [Cycle] when it loops. *)
  let chain_of ~parent view id =
    let n = Proto.View.node_count view in
    let rec climb id hops =
      if hops > n then Cycle
      else
        match Proto.View.find view id with
        | None -> Left_view
        | Some st -> (
            match parent st with None -> Depth (hops + 1) | Some p -> climb p (hops + 1))
    in
    climb id 0

  let depth_of ~parent view id =
    match chain_of ~parent view id with Depth d -> Some d | Left_view | Cycle -> None

  (* [depths] codes: a complete chain's depth (>= 1), or one of these. *)
  let left_view = 0
  and cycle = -1
  and walking = -2
  and unresolved = -3

  (* Every node's [chain_of], in view order, from one pass: parents are
     found through an id-indexed table, and each walk memoises every
     node it passes, so a view costs O(n) instead of [chain_of]'s list
     scan per hop per node. A walk that meets a node still on its own
     path has looped. Duplicate ids resolve like [View.find]: to the
     first binding. *)
  let depths ~parent view =
    let nodes = Array.of_list view.Proto.View.nodes in
    let n = Array.length nodes in
    (* Open-addressed id -> position table, at most half full. *)
    let cap = ref 1 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    let mask = !cap - 1 in
    let keys = Array.make !cap (-1) and pos = Array.make !cap 0 in
    let rec slot k s = if keys.(s) = k || keys.(s) < 0 then s else slot k ((s + 1) land mask) in
    Array.iteri
      (fun i (id, _) ->
        let k = Proto.Node_id.to_int id in
        let s = slot k (k land mask) in
        if keys.(s) < 0 then begin
          keys.(s) <- k;
          pos.(s) <- i
        end)
      nodes;
    let position id =
      let k = Proto.Node_id.to_int id in
      let s = slot k (k land mask) in
      if keys.(s) < 0 then -1 else pos.(s)
    in
    let memo = Array.make n unresolved in
    let rec resolve i =
      let m = memo.(i) in
      if m = walking then cycle
      else if m <> unresolved then m
      else begin
        memo.(i) <- walking;
        let c =
          match parent (snd nodes.(i)) with
          | None -> 1
          | Some p ->
              let j = position p in
              if j < 0 then left_view
              else
                let d = resolve j in
                if d >= 1 then d + 1 else d
        in
        memo.(i) <- c;
        c
      end
    in
    Array.map (fun (id, _) -> resolve (position id)) nodes

  (* Maximum depth over nodes with a complete chain to a root; 0 for an
     empty view. *)
  let max_depth ~parent view = Array.fold_left max 0 (depths ~parent view)

  let has_cycle ~parent view = Array.exists (fun d -> d = cycle) (depths ~parent view)

  let joined_count ~joined view =
    List.length (List.filter (fun (_, st) -> joined st) view.Proto.View.nodes)

  (* Mean depth over nodes with complete chains; 0 for an empty view.
     Differentiates futures whose maximum depth ties. *)
  let mean_depth ~parent view =
    let total = ref 0 and count = ref 0 in
    Array.iter
      (fun d ->
        if d >= 1 then begin
          total := !total + d;
          incr count
        end)
      (depths ~parent view);
    if !count = 0 then 0. else float_of_int !total /. float_of_int !count
end

(** The [no-cycle] property kept node by node, for the engine: one
    parent link per endpoint (-1 for a root or an absent node) and the
    verdict. While the tree is acyclic, any new cycle runs through a
    link that just moved, so only walks from those nodes, at most n
    hops each, can find one. Once it is cyclic, the next moves
    recompute the verdict from all the links. *)
module No_cycle = struct
  type t = {
    mutable links : int array;  (** endpoint -> parent endpoint *)
    mutable moved : int list;  (** endpoints whose link moved since the last verdict *)
    mutable acyclic : bool;
  }

  let update ~parent t e st =
    let l =
      match Option.bind st parent with None -> -1 | Some p -> Proto.Node_id.to_int p
    in
    let n = Array.length t.links in
    if e >= n then t.links <- Array.append t.links (Array.make (e + 1 - n) (-1));
    if t.links.(e) <> l then begin
      t.links.(e) <- l;
      t.moved <- e :: t.moved
    end

  (* Do the parent links from [start] lead back to it? *)
  let returns t start =
    let n = Array.length t.links in
    let rec climb j hops =
      let l = t.links.(j) in
      l >= 0 && l < n && (l = start || (hops < n && climb l (hops + 1)))
    in
    climb start 0

  let rec any_returns t e = e < Array.length t.links && (returns t e || any_returns t (e + 1))

  let verdict t =
    if t.moved <> [] then begin
      t.acyclic <-
        not (if t.acyclic then List.exists (returns t) t.moved else any_returns t 0);
      t.moved <- []
    end;
    t.acyclic

  let start ~parent view =
    Proto.View.tracker ~update:(update ~parent) ~verdict
      ~copy:(fun t -> { t with links = Array.copy t.links })
      { links = [||]; moved = []; acyclic = true }
      view
end

(** The objectives and properties both variants expose (§3.2): keep the
    tree shallow and connected; never form a cycle; eventually everyone
    joins. *)
let objectives ~parent ~joined =
  [
    Core.Objective.v ~name:"shallow-tree" ~weight:1.0 (fun view ->
        -.float_of_int (Measure.max_depth ~parent view));
    Core.Objective.v ~name:"compact-tree" ~weight:0.3 (fun view ->
        -.(Measure.mean_depth ~parent view));
    Core.Objective.v ~name:"membership" ~weight:0.5 (fun view ->
        float_of_int (Measure.joined_count ~joined view));
  ]

let properties ~parent ~joined =
  [
    Core.Property.safety ~name:"no-cycle" ~track:(No_cycle.start ~parent) (fun view ->
        not (Measure.has_cycle ~parent view));
    Core.Property.liveness ~name:"all-joined" (fun view ->
        List.for_all (fun (_, st) -> joined st) view.Proto.View.nodes);
  ]
