(** A Chord-style DHT with the routing choice exposed (paper §3.1:
    "choosing the node to forward a message to").

    Nodes sit on a 256-position ring with static finger tables; lookups
    are forwarded until they reach the key's owner, who replies to the
    origin. Classic Chord hard-codes {e greedy-by-progress} forwarding
    (halve the remaining distance); proximity-aware variants (PNS)
    hard-code {e greedy-by-RTT}. Here every hop exposes the candidate
    fingers that make progress (label {!route_label}) with both
    progress and predicted-RTT features, and the policy is whichever
    resolver the runtime installs. *)

module Int_map = Map.Make (Int)

let ring_bits = 8
let ring_size = 1 lsl ring_bits

type msg =
  | Lookup of { key : int; origin : Proto.Node_id.t; born : float; hops : int }
  | Found of { key : int; owner : Proto.Node_id.t; born : float; hops : int }

let msg_kind = function Lookup _ -> "lookup" | Found _ -> "found"
let msg_bytes = function Lookup _ -> 64 | Found _ -> 64

let pp_msg ppf = function
  | Lookup { key; hops; _ } -> Format.fprintf ppf "lookup(%d,h%d)" key hops
  | Found { key; hops; _ } -> Format.fprintf ppf "found(%d,h%d)" key hops

let msg_codec =
  let open Wire.Codec in
  let node = conv Proto.Node_id.to_int Proto.Node_id.of_int int in
  let query = pair (pair int node) (pair float int) in
  tagged
    ~cases:[ (0, shape query); (1, shape query) ]
    (function
      | Lookup { key; origin; born; hops } -> (0, encode query ((key, origin), (born, hops)))
      | Found { key; owner; born; hops } -> (1, encode query ((key, owner), (born, hops))))
    (fun tag payload ->
      match tag with
      | 0 ->
          Result.map
            (fun ((key, origin), (born, hops)) -> Lookup { key; origin; born; hops })
            (decode query payload)
      | 1 ->
          Result.map
            (fun ((key, owner), (born, hops)) -> Found { key; owner; born; hops })
            (decode query payload)
      | t -> Error (Printf.sprintf "unknown dht tag %d" t))

let route_label = "route.next"
let route_schema = Core.Choice.schema [ "remaining"; "rtt_ms" ]

(* Clockwise distance from [a] to [b] on the ring. *)
let distance a b = (b - a + ring_size) mod ring_size

module type PARAMS = sig
  val population : int

  val query_period : float
  (** seconds between lookups issued per node; 0. disables *)

  val max_hops : int
  (** routing sanity bound; exceeding it is a safety violation *)
end

module Default_params = struct
  let population = 32
  let query_period = 1.0
  let max_hops = 24
end

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = msg

  val position_of : int -> int
  (** Ring position of node index [i]. *)

  val owner_of : int -> Proto.Node_id.t
  (** The node owning a key. *)

  val lookups : state -> (float * int) list
  (** Completed lookups at this origin: (latency seconds, hops). *)

  val issued : state -> int
  val hop_violations : state -> int
end = struct
  type nonrec msg = msg

  (* Nodes are spread evenly; a real deployment would hash, but even
     spacing keeps owner arithmetic obvious and the routing identical. *)
  let position_of i = i * ring_size / P.population

  let node_positions = List.init P.population (fun i -> (i, position_of i))

  let owner_of key =
    (* The owner is the first node at or clockwise-after the key. *)
    let best =
      List.fold_left
        (fun best (i, pos) ->
          let d = distance key pos in
          match best with Some (_, bd) when bd <= d -> best | _ -> Some (i, d))
        None node_positions
    in
    match best with Some (i, _) -> Proto.Node_id.of_int i | None -> assert false

  (* Chord fingers: successors of self_pos + 2^k, deduplicated. *)
  let fingers_of i =
    let self_pos = position_of i in
    List.sort_uniq compare
      (List.filter_map
         (fun k ->
           let target = (self_pos + (1 lsl k)) mod ring_size in
           let f = owner_of target in
           if Proto.Node_id.to_int f = i then None
           else Some (f, position_of (Proto.Node_id.to_int f)))
         (List.init ring_bits Fun.id))

  type state = {
    self : Proto.Node_id.t;
    pos : int;
    fingers : (Proto.Node_id.t * int) list;
    issued : int;
    completed : (float * int) list;  (* latency, hops *)
    hop_violations : int;
  }

  let name = "dht"
  let equal_state (a : state) b = a = b
  let msg_kind = msg_kind
  let msg_bytes = msg_bytes
  let pp_msg = pp_msg
  let msg_codec = Some msg_codec
  let durable = None
  let degraded = None
  let priority = None

  (* Byzantine admission check (see {!Proto.App_intf.APP.validate}).
     Keys live on the ring, node ids name real nodes, born timestamps
     are finite simulation times, and no honest route lasts anywhere
     near [ring_size] hops (greedy progress halves the distance, so
     [ring_bits] is the nominal ceiling and [max_hops] the safety
     bound; the admission cap is deliberately looser than both so it
     never preempts the app's own hop-violation accounting). *)
  let valid_query ~who key peer born hops =
    if key < 0 || key >= ring_size then Error "key off the ring"
    else if Proto.Node_id.to_int peer >= P.population then Error (who ^ " outside population")
    else if not (Float.is_finite born && born >= 0.) then Error "born not a timestamp"
    else if hops < 0 || hops > ring_size then Error "hop count off the ring"
    else Ok ()

  let validate =
    Some
      (fun m ->
        match m with
        | Lookup { key; origin; born; hops } -> valid_query ~who:"origin" key origin born hops
        | Found { key; owner; born; hops } -> valid_query ~who:"owner" key owner born hops)

  let pp_state ppf st =
    Format.fprintf ppf "{pos=%d done=%d}" st.pos (List.length st.completed)

  (* Same equivalence classes as [pp_state] above, without formatting. *)
  let fingerprint = Some (fun st -> Hashtbl.hash (st.pos, List.length st.completed))

  let lookups st = st.completed
  let issued st = st.issued
  let hop_violations st = st.hop_violations

  let init (ctx : Proto.Ctx.t) =
    let i = Proto.Node_id.to_int ctx.self in
    ( {
        self = ctx.self;
        pos = position_of i;
        fingers = fingers_of i;
        issued = 0;
        completed = [];
        hop_violations = 0;
      },
      if P.query_period > 0. then
        [ Proto.Action.set_timer ~id:"query" ~after:P.query_period ]
      else [] )

  let owns st key =
    Proto.Node_id.equal (owner_of key) st.self

  (* The exposed routing choice: any finger that strictly reduces the
     clockwise distance to the key is a legal next hop. Classic Chord
     is [greedy ~feature:"remaining"]; proximity routing is
     [greedy ~feature:"rtt_ms"]. *)
  let forward (ctx : Proto.Ctx.t) st ~key ~origin ~born ~hops =
    let here = distance st.pos key in
    let candidates =
      (* Most-promising first, so resolvers that cap how many
         alternatives they examine always see the big strides. *)
      List.sort
        (fun (_, a) (_, b) -> Int.compare (distance a key) (distance b key))
        (List.filter (fun (_, fpos) -> distance fpos key < here) st.fingers)
    in
    match candidates with
    | [] ->
        (* No finger improves on us, so the key's owner is our direct
           successor region; deliver there. *)
        let succ = owner_of key in
        [ Proto.Action.send ~dst:succ (Lookup { key; origin; born; hops = hops + 1 }) ]
    | _ :: _ ->
        let alternative (finger, fpos) =
          Core.Choice.alt
            ~features:
              [| float_of_int (distance fpos key); Proto.Ctx.predicted_ms ctx finger |]
            finger
        in
        let next =
          ctx.choose
            (Core.Choice.make ~label:route_label ~schema:route_schema
               (List.map alternative candidates))
        in
        [ Proto.Action.send ~dst:next (Lookup { key; origin; born; hops = hops + 1 }) ]

  let h_lookup =
    Proto.Handler.v ~name:"lookup"
      ~guard:(fun _ ~src:_ m -> match m with Lookup _ -> true | Found _ -> false)
      (fun ctx st ~src:_ m ->
        match m with
        | Lookup { key; origin; born; hops } ->
            if hops > P.max_hops then
              ({ st with hop_violations = st.hop_violations + 1 }, [])
            else if owns st key then
              (st, [ Proto.Action.send ~dst:origin (Found { key; owner = st.self; born; hops }) ])
            else (st, forward ctx st ~key ~origin ~born ~hops)
        | Found _ -> (st, []))

  let h_found =
    Proto.Handler.v ~name:"found"
      ~guard:(fun _ ~src:_ m -> match m with Found _ -> true | Lookup _ -> false)
      (fun ctx st ~src:_ m ->
        match m with
        | Found { born; hops; _ } ->
            let latency = Dsim.Vtime.to_seconds ctx.now -. born in
            ({ st with completed = (latency, hops) :: st.completed }, [])
        | Lookup _ -> (st, []))

  let receive = [ h_lookup; h_found ]

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "query" ->
        let key = Dsim.Rng.int ctx.rng ring_size in
        let born = Dsim.Vtime.to_seconds ctx.now in
        let st = { st with issued = st.issued + 1 } in
        let actions =
          if owns st key then
            [ Proto.Action.send ~dst:st.self (Found { key; owner = st.self; born; hops = 0 }) ]
          else forward ctx st ~key ~origin:st.self ~born ~hops:0
        in
        (st, actions @ [ Proto.Action.set_timer ~id:"query" ~after:P.query_period ])
    | _ -> (st, [])

  let objectives : (state, msg) Proto.View.t Core.Objective.t list =
    [
      Core.Objective.v ~name:"lookup-speed" (fun view ->
          Proto.View.fold
            (fun acc _ st ->
              acc
              +. float_of_int (List.length st.completed)
              -. List.fold_left (fun a (l, _) -> a +. l) 0. st.completed)
            0. view);
    ]

  let properties : (state, msg) Proto.View.t Core.Property.t list =
    [
      Core.Property.safety ~name:"bounded-hops" (fun view ->
          Proto.View.fold (fun ok _ st -> ok && st.hop_violations = 0) true view);
      Core.Property.liveness ~name:"lookups-complete" (fun view ->
          Proto.View.fold
            (fun ok _ st -> ok && List.length st.completed = st.issued)
            true view);
    ]

  let generic_msgs st : (Proto.Node_id.t * msg) list =
    if st.issued = 0 then []
    else
      let ghost = Proto.Node_id.of_int 93 in
      [ (ghost, Lookup { key = 0; origin = ghost; born = 0.; hops = 0 }) ]
end

module Default = Make (Default_params)

(** The classic proximity-neighbour-selection compromise, as a
    resolver: among fingers whose remaining distance is within 2x of
    the best stride, take the lowest predicted RTT. Both of the
    hard-coded worlds (pure progress, pure proximity) are special cases
    the runtime can now interpolate between. *)
let pns_resolver =
  let remaining_c = Core.Choice.column "remaining" and rtt_c = Core.Choice.column "rtt_ms" in
  Core.Resolver.make ~name:"pns" (fun rng site ->
      let remaining_c = remaining_c site and rtt_c = rtt_c site in
      let remaining i = Core.Choice.value site remaining_c ~alt:i ~default:infinity in
      let rtt i = Core.Choice.value site rtt_c ~alt:i ~default:infinity in
      let n = site.site_arity in
      let best_remaining = ref infinity in
      for i = 0 to n - 1 do
        if remaining i < !best_remaining then best_remaining := remaining i
      done;
      let eligible = ref [] in
      for i = n - 1 downto 0 do
        if remaining i <= (2. *. !best_remaining) +. 1. then eligible := i :: !eligible
      done;
      match !eligible with
      | [] -> Dsim.Rng.int rng n
      | alts ->
          List.fold_left
            (fun best i -> if rtt i < rtt best then i else best)
            (List.hd alts) (List.tl alts))
