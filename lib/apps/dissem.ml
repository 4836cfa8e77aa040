(** Swarm content distribution with an exposed block choice (paper
    §3.1, "Content Distribution").

    A seed holds all blocks of a file; peers exchange blocks over a
    static random mesh, BitTorrent/BulletPrime style: neighbours
    advertise bitmaps, a peer keeps at most one outstanding request per
    neighbour, and every request must decide {e which block to ask
    for}. BitTorrent and BulletPrime hard-code (different!) strategies
    — random vs rarest-random — and the paper notes neither dominates.
    Here the decision is the exposed choice {!block_label}: random,
    rarest (greedy on the ["rarity"] feature), lookahead and bandit
    policies are all just resolvers. *)

module Int_set = Set.Make (Int)

type msg =
  | Have of { blocks : int list }  (** bitmap advertisement *)
  | Request of { block : int }
  | Piece of { block : int }

let msg_kind = function Have _ -> "have" | Request _ -> "request" | Piece _ -> "piece"

let pp_msg ppf = function
  | Have { blocks } -> Format.fprintf ppf "have(%d)" (List.length blocks)
  | Request { block } -> Format.fprintf ppf "request(#%d)" block
  | Piece { block } -> Format.fprintf ppf "piece(#%d)" block

let block_label = "block.select"
let block_schema = Core.Choice.schema [ "block_id"; "rarity" ]

module type PARAMS = sig
  val population : int
  (** peers [0 .. population-1]; node 0 is the seed *)

  val blocks : int
  val block_bytes : int

  val degree : int
  (** mesh neighbours per peer *)

  val tick_period : float
  val request_timeout : float
  val candidate_cap : int
end

module Default_params = struct
  let population = 16
  let blocks = 64
  let block_bytes = 16_384
  let degree = 4
  let tick_period = 0.2
  let request_timeout = 3.0
  let candidate_cap = 8
end

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = msg

  val have : state -> Int_set.t
  val complete : state -> bool
  val self_of : state -> Proto.Node_id.t

  val neighbors_of_id : int -> int list
  (** The static mesh, exposed for tests and experiments. *)

  val state_codec : state Wire.Codec.t
  (** Wire encoding of a peer's state (its bitmap, its view of the
      neighbours' bitmaps, outstanding requests) — what a runtime
      checkpoint of this protocol actually costs on the wire. This is
      the BulletPrime "file map" state the paper's §3.3 wants exported
      to the runtime. *)
end = struct
  type nonrec msg = msg

  let seed_id = Proto.Node_id.of_int 0

  (* Static random mesh: a ring (guaranteeing connectivity) plus
     deterministic chords. Both endpoints agree on the edge set because
     it depends only on ids. *)
  let neighbors_of_id i =
    let n = P.population in
    let ring = [ (i + 1) mod n; (i + n - 1) mod n ] in
    let chords =
      let rng = Dsim.Rng.create ((i * 31) + 17) in
      List.init (max 0 (P.degree - 2)) (fun _ -> Dsim.Rng.int rng n)
    in
    List.sort_uniq Int.compare (List.filter (fun j -> j <> i) (ring @ chords))

  type state = {
    self : Proto.Node_id.t;
    have : Int_set.t;
    neighbor_have : (Proto.Node_id.t * Int_set.t) list;
    outstanding : (Proto.Node_id.t * int * float) list;  (* peer, block, sent-at seconds *)
  }

  let name = "dissem"

  (* Semantic equality: two [Int_set.t]s with equal elements may have
     different internal tree shapes (e.g. one rebuilt from a decoded
     checkpoint), so polymorphic (=) would be wrong here. *)
  let equal_state (a : state) b =
    Proto.Node_id.equal a.self b.self
    && Int_set.equal a.have b.have
    && List.length a.neighbor_have = List.length b.neighbor_have
    && List.for_all2
         (fun (p, s) (q, t) -> Proto.Node_id.equal p q && Int_set.equal s t)
         a.neighbor_have b.neighbor_have
    && a.outstanding = b.outstanding

  let msg_kind = msg_kind
  let pp_msg = pp_msg
  let msg_codec = None
  let validate = None

  let msg_bytes = function
    | Have { blocks } -> 32 + (4 * List.length blocks)
    | Request _ -> 32
    | Piece _ -> 64 + P.block_bytes

  let pp_state ppf st =
    Format.fprintf ppf "{have=%d out=%d}" (Int_set.cardinal st.have) (List.length st.outstanding)

  (* Same equivalence classes as [pp_state] above, without formatting. *)
  let fingerprint =
    Some (fun st -> Hashtbl.hash (Int_set.cardinal st.have, List.length st.outstanding))

  let have st = st.have
  let complete st = Int_set.cardinal st.have = P.blocks
  let self_of st = st.self

  let neighbors st =
    List.map Proto.Node_id.of_int (neighbors_of_id (Proto.Node_id.to_int st.self))

  let full_set = Int_set.of_list (List.init P.blocks Fun.id)

  let init (ctx : Proto.Ctx.t) =
    let is_seed = Proto.Node_id.equal ctx.self seed_id in
    let st =
      {
        self = ctx.self;
        have = (if is_seed then full_set else Int_set.empty);
        neighbor_have = [];
        outstanding = [];
      }
    in
    let announce =
      if is_seed then
        List.map
          (fun peer -> Proto.Action.send ~dst:peer (Have { blocks = Int_set.elements st.have }))
          (neighbors st)
      else []
    in
    (st, announce @ [ Proto.Action.set_timer ~id:"tick" ~after:P.tick_period ])

  let neighbor_set st peer =
    Option.value ~default:Int_set.empty (List.assoc_opt peer st.neighbor_have)

  let update_neighbor st peer blocks =
    {
      st with
      neighbor_have =
        (peer, Int_set.union (neighbor_set st peer) (Int_set.of_list blocks))
        :: List.remove_assoc peer st.neighbor_have;
    }

  let h_have =
    Proto.Handler.v ~name:"have"
      ~guard:(fun _ ~src:_ m -> match m with Have _ -> true | Request _ | Piece _ -> false)
      (fun _ctx st ~src m ->
        match m with
        | Have { blocks } -> (update_neighbor st src blocks, [])
        | Request _ | Piece _ -> (st, []))

  let h_request =
    Proto.Handler.v ~name:"request"
      ~guard:(fun _ ~src:_ m -> match m with Request _ -> true | Have _ | Piece _ -> false)
      (fun _ctx st ~src m ->
        match m with
        | Request { block } ->
            if Int_set.mem block st.have then
              (st, [ Proto.Action.send ~dst:src (Piece { block }) ])
            else (st, [])
        | Have _ | Piece _ -> (st, []))

  let h_piece =
    Proto.Handler.v ~name:"piece"
      ~guard:(fun _ ~src:_ m -> match m with Piece _ -> true | Have _ | Request _ -> false)
      (fun _ctx st ~src:_ m ->
        match m with
        | Piece { block } ->
            if Int_set.mem block st.have then
              (* Duplicate download — pure waste, the cost of a poor
                 earlier block choice. *)
              ({ st with outstanding = List.filter (fun (_, b, _) -> b <> block) st.outstanding }, [])
            else
              let st =
                {
                  st with
                  have = Int_set.add block st.have;
                  outstanding = List.filter (fun (_, b, _) -> b <> block) st.outstanding;
                }
              in
              ( st,
                List.map
                  (fun peer -> Proto.Action.send ~dst:peer (Have { blocks = [ block ] }))
                  (neighbors st) )
        | Have _ | Request _ -> (st, []))

  let receive = [ h_have; h_request; h_piece ]

  (* How many of my neighbours (and I) hold [block] — the classic local
     rarity estimate driving rarest-first. *)
  let rarity st block =
    let mine = if Int_set.mem block st.have then 1 else 0 in
    List.fold_left
      (fun acc (_, s) -> if Int_set.mem block s then acc + 1 else acc)
      mine st.neighbor_have

  let pick_requests (ctx : Proto.Ctx.t) st =
    let now = Dsim.Vtime.to_seconds ctx.now in
    (* Expire stale outstanding requests so lost pieces are retried. *)
    let outstanding =
      List.filter (fun (_, _, at) -> now -. at <= P.request_timeout) st.outstanding
    in
    let st = { st with outstanding } in
    let requested = List.map (fun (_, b, _) -> b) st.outstanding in
    List.fold_left
      (fun (st, actions) peer ->
        if List.exists (fun (p, _, _) -> Proto.Node_id.equal p peer) st.outstanding then
          (st, actions)
        else begin
          let wanted =
            Int_set.elements
              (Int_set.diff (neighbor_set st peer)
                 (Int_set.union st.have (Int_set.of_list requested)))
          in
          match wanted with
          | [] -> (st, actions)
          | _ :: _ ->
              let candidates =
                Dsim.Rng.sample_without_replacement ctx.rng P.candidate_cap wanted
              in
              let alternative block =
                Core.Choice.alt
                  ~features:[| float_of_int block; float_of_int (rarity st block) |]
                  block
              in
              let block =
                ctx.choose
                  (Core.Choice.make ~label:block_label ~schema:block_schema
                     (List.map alternative candidates))
              in
              ( { st with outstanding = (peer, block, now) :: st.outstanding },
                Proto.Action.send ~dst:peer (Request { block }) :: actions )
        end)
      (st, []) (neighbors st)

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "tick" ->
        let rearm = Proto.Action.set_timer ~id:"tick" ~after:P.tick_period in
        if complete st then (st, [ rearm ])
        else
          let st, requests = pick_requests ctx st in
          (st, requests @ [ rearm ])
    | _ -> (st, [])

  let objectives =
    [
      Core.Objective.v ~name:"swarm-progress" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int (Int_set.cardinal st.have)) 0. view);
      (* Concave reward on per-block replication: copying a rare block
         pays more than another copy of a common one. This is the
         diversity goal rarest-first hard-codes, exposed as an
         objective so predictive resolvers can see it. *)
      Core.Objective.v ~name:"block-diversity" ~weight:2.0 (fun view ->
          let counts = Array.make P.blocks 0 in
          Proto.View.fold
            (fun () _ st -> Int_set.iter (fun b -> if b < P.blocks then counts.(b) <- counts.(b) + 1) st.have)
            () view;
          Array.fold_left (fun acc c -> acc +. sqrt (float_of_int c)) 0. counts);
    ]

  let properties =
    [
      Core.Property.safety ~name:"valid-blocks" (fun view ->
          Proto.View.fold
            (fun ok _ st -> ok && Int_set.subset st.have full_set)
            true view);
      Core.Property.liveness ~name:"all-complete" (fun view ->
          Proto.View.fold (fun ok _ st -> ok && complete st) true view);
    ]

  let generic_msgs st =
    if complete st then []
    else
      let ghost = Proto.Node_id.of_int 95 in
      [ (ghost, Have { blocks = [ 0 ] }) ]

  let state_codec =
    let open Wire.Codec in
    let node = conv Proto.Node_id.to_int Proto.Node_id.of_int int in
    let blockset = conv Int_set.elements Int_set.of_list (list int) in
    conv
      (fun st -> (st.self, (st.have, (st.neighbor_have, st.outstanding))))
      (fun (self, (have, (neighbor_have, outstanding))) ->
        { self; have; neighbor_have; outstanding })
      (pair node
         (pair blockset
            (pair (list (pair node blockset)) (list (triple node int float)))))

  (* The checkpoint codec doubles as the durability codec: a restarted
     node resumes with the blocks it had already fetched instead of
     re-downloading the file. [equal_state] (not polymorphic (=))
     suppresses no-op records — a decoded state's set shapes differ. *)
  let durable = Some (Proto.Durability.v ~equal:equal_state state_codec)
  let degraded = None
  let priority = None
end

module Default = Make (Default_params)
