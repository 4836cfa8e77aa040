(** Global views: what properties and objectives are evaluated on.

    In the simulation engine the view is exact; in the CrystalBall
    runtime it is reconstructed from collected checkpoints and may be
    partial and stale — the same property and objective code runs on
    both, as the paper requires.

    The in-flight message list is deferred: most properties and
    objectives read only node states, and building the list costs a
    walk over the engine's event queue. Two kinds of view exist:
    {ul
    {- a {e snapshot} ({!v}, and the engine's [global_view]) has its
       in-flight list already built and stays valid forever;}
    {- a {e deferred} view ({!deferred}) builds the list on the first
       {!inflight} call, from whatever its source holds at that moment.
       The engine hands these to property checks and lookahead scoring
       only, so they are valid only for the duration of that call: a
       property or objective must not keep one.}}

    Two OCaml 5 constraints follow from the deferral. A view passed to
    another domain must already be forced (a snapshot, or one whose
    {!inflight} has been read), because two domains forcing the same
    suspension concurrently raise [Lazy.Undefined]. And views must
    never be compared or hashed structurally: an unforced suspension
    is a closure. *)

type ('state, 'msg) t = {
  time : Dsim.Vtime.t;
  nodes : (Node_id.t * 'state) list;  (** live nodes, ascending id *)
  lazy_inflight : (Node_id.t * Node_id.t * 'msg) list Lazy.t;
      (** (src, dst, msg); read it through {!inflight} *)
}

(** A snapshot view. *)
let v ~time ~nodes ~inflight = { time; nodes; lazy_inflight = Lazy.from_val inflight }

(** A deferred view: [inflight ()] runs at most once, on the first
    {!inflight} call. *)
let deferred ~time ~nodes inflight = { time; nodes; lazy_inflight = Lazy.from_fun inflight }

let inflight t = Lazy.force t.lazy_inflight

let find t id =
  List.find_map (fun (i, s) -> if Node_id.equal i id then Some s else None) t.nodes

let node_count t = List.length t.nodes
let inflight_count t = List.length (inflight t)
let ids t = List.map fst t.nodes

(** Fold over node states. *)
let fold f acc t = List.fold_left (fun acc (id, s) -> f acc id s) acc t.nodes

(** Restrict to a subset of nodes — used to build the partial views the
    runtime reconstructs from a checkpoint neighbourhood. A snapshot
    restricts to a snapshot, a deferred view to a deferred one. *)
let restrict t keep =
  let keep_msgs l =
    List.filter (fun (a, b, _) -> Node_id.Set.mem a keep && Node_id.Set.mem b keep) l
  in
  {
    t with
    nodes = List.filter (fun (id, _) -> Node_id.Set.mem id keep) t.nodes;
    lazy_inflight =
      (if Lazy.is_val t.lazy_inflight then Lazy.from_val (keep_msgs (inflight t))
       else lazy (keep_msgs (inflight t)));
  }

(** A {!Core.Property.tracker} over a mutable ['s]: [update s id st]
    brings [s] up to date with node [id] in state [st] ([None] once it
    left the view), [verdict s] answers, [copy s] shares nothing
    mutable with [s]. It first updates [s] with every node of [view],
    then, at each [holds], with the nodes touched since the last one;
    [update] must be idempotent, as a node touched twice is updated
    twice. *)
let tracker ~update ~verdict ~copy s view =
  let rec make s touched =
    let touched = ref touched in
    {
      Core.Property.touch = (fun e -> touched := e :: !touched);
      holds =
        (fun view ->
          (match !touched with
          | [] -> ()
          | ids ->
              List.iter (fun e -> update s e (find view (Node_id.of_int e))) ids;
              touched := []);
          verdict s);
      copy = (fun () -> make (copy s) !touched);
    }
  in
  make s (List.map (fun (id, _) -> Node_id.to_int id) view.nodes)
