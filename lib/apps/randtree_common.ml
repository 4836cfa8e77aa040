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

(** The [no-cycle] property, checked incrementally.

    The engine checks it after every event and every lookahead fork
    after each of its events, and between two checks a few parent
    links move at most. So the memo keeps the last checked view's ids
    in view order, each one's parent link as an int, an id -> position
    index, and the verdict. A view with the same ids after an acyclic
    verdict only walks parents from the nodes whose link changed, at
    most n hops each: any new cycle runs through a changed link, and
    the view has one iff such a walk returns to its start. Any other
    view (new or reordered ids, duplicate or sparse ids, a cyclic last
    verdict) takes the full {!Measure.has_cycle}, which stays the
    reference, and refills the memo.

    The memo holds ints only, never the view (a deferred view must not
    be kept), and assumes nothing but "the last view checked", so a
    lookahead fork and its parent engine may take turns on one memo.
    One memo per domain (DLS) and per {!properties} call. *)
module No_cycle = struct
  type memo = {
    mutable count : int;  (** nodes in the last view checked; -1 = nothing to reuse *)
    mutable ids : int array;  (** their ids, in view order *)
    mutable links : int array;  (** each one's parent id; -1 for a root *)
    mutable index : int array;  (** id -> position; -1 when absent *)
    mutable changed : int array;  (** positions whose link moved in this check *)
    mutable moved : int;  (** how many of [changed] are set *)
    mutable acyclic : bool;
  }

  let create () =
    {
      count = -1;
      ids = [||];
      links = [||];
      index = [||];
      changed = [||];
      moved = 0;
      acyclic = false;
    }

  let link ~parent st = match parent st with None -> -1 | Some p -> Proto.Node_id.to_int p

  (* Does [nodes] carry the memo's ids, from position [i] on? Updates
     each link on the way and records the positions that moved. *)
  let rec same_ids m ~parent i = function
    | [] -> i = m.count
    | (id, st) :: rest ->
        i < m.count
        && m.ids.(i) = Proto.Node_id.to_int id
        &&
        let l = link ~parent st in
        if l <> m.links.(i) then begin
          m.links.(i) <- l;
          m.changed.(m.moved) <- i;
          m.moved <- m.moved + 1
        end;
        same_ids m ~parent (i + 1) rest

  (* Do the parent links from position [j] lead back to [start] within
     [count - hops] more hops? *)
  let rec returns m ~start j hops =
    let l = m.links.(j) in
    if l < 0 || l >= Array.length m.index then false
    else
      let k = m.index.(l) in
      if k < 0 then false
      else if k = start then true
      else hops < m.count && returns m ~start k (hops + 1)

  let rec any_returns m k =
    k < m.moved
    &&
    let i = m.changed.(k) in
    returns m ~start:i i 0 || any_returns m (k + 1)

  (* Refill the memo from [nodes]. Leaves [count = -1] when the ids are
     duplicate or sparse (the largest far above the node count), which
     the index does not serve. *)
  let refill m ~parent nodes =
    let n = List.length nodes in
    if Array.length m.ids < n then begin
      let cap = max n (2 * Array.length m.ids) in
      m.ids <- Array.make cap 0;
      m.links <- Array.make cap 0;
      m.changed <- Array.make cap 0
    end;
    let top = ref (-1) in
    List.iteri
      (fun i (id, st) ->
        let id = Proto.Node_id.to_int id in
        m.ids.(i) <- id;
        m.links.(i) <- link ~parent st;
        top := max !top id)
      nodes;
    m.count <- -1;
    if !top <= (4 * n) + 64 then begin
      if Array.length m.index > !top then Array.fill m.index 0 (Array.length m.index) (-1)
      else m.index <- Array.make (max (!top + 1) (2 * Array.length m.index)) (-1);
      let rec place i =
        i = n
        ||
        let id = m.ids.(i) in
        m.index.(id) < 0
        &&
        (m.index.(id) <- i;
         place (i + 1))
      in
      if place 0 then m.count <- n
    end

  let holds m ~parent view =
    let nodes = view.Proto.View.nodes in
    m.moved <- 0;
    if m.acyclic && m.count >= 0 && same_ids m ~parent 0 nodes then
      m.acyclic <- not (any_returns m 0)
    else begin
      m.acyclic <- not (Measure.has_cycle ~parent view);
      refill m ~parent nodes
    end;
    m.acyclic
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
  let memo = Domain.DLS.new_key No_cycle.create in
  [
    Core.Property.safety ~name:"no-cycle" (fun view ->
        No_cycle.holds (Domain.DLS.get memo) ~parent view);
    Core.Property.liveness ~name:"all-joined" (fun view ->
        List.for_all (fun (_, st) -> joined st) view.Proto.View.nodes);
  ]
