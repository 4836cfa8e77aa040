(** Epidemic dissemination with an exposed peer choice (paper §3.1,
    "Gossip Protocols").

    Every round a node picks one peer and push-pulls its rumor set with
    it. {e Which} peer is the choice the paper discusses: BAR Gossip
    restricts it to a deterministic schedule (good against Byzantine
    partners, bad when the scheduled target sits behind a slow link);
    plain epidemics pick uniformly; FlightPath relaxes the restriction
    for performance. Here the protocol exposes the choice (label
    {!peer_label}) and the policy is whichever resolver the runtime
    installs — {!restricted_resolver} reproduces the BAR-style
    schedule. *)

module Int_set = Set.Make (Int)

type msg =
  | Push of { rumors : int list; round : int }
  | Push_back of { rumors : int list }

let msg_kind = function Push _ -> "push" | Push_back _ -> "push_back"

(* A rumor is ~1 KB of payload in flight; headers cost 64 bytes. *)
let msg_bytes = function
  | Push { rumors; _ } -> 64 + (1024 * List.length rumors)
  | Push_back { rumors } -> 64 + (1024 * List.length rumors)

let pp_msg ppf = function
  | Push { rumors; round } -> Format.fprintf ppf "push(%d rumors, r%d)" (List.length rumors) round
  | Push_back { rumors } -> Format.fprintf ppf "push_back(%d rumors)" (List.length rumors)

let msg_codec =
  let open Wire.Codec in
  tagged
    ~cases:[ (0, shape (pair (list int) int)); (1, shape (list int)) ]
    (function
      | Push { rumors; round } -> (0, encode (pair (list int) int) (rumors, round))
      | Push_back { rumors } -> (1, encode (list int) rumors))
    (fun tag payload ->
      match tag with
      | 0 ->
          Result.map
            (fun (rumors, round) -> Push { rumors; round })
            (decode (pair (list int) int) payload)
      | 1 -> Result.map (fun rumors -> Push_back { rumors }) (decode (list int) payload)
      | t -> Error (Printf.sprintf "unknown gossip tag %d" t))

let peer_label = "gossip.peer"
let peer_schema = Core.Choice.schema [ "peer_id"; "round"; "rtt_ms"; "age_s" ]

(* Byzantine admission check (see {!Proto.App_intf.APP.validate}),
   shared with the baseline variant. Honest rumor digests come out of
   [Int_set.elements], so they are strictly sorted, duplicate-free and
   non-negative (seeded waves use small non-negative ids); rounds count
   up from 0. A mutated push that duplicates, reorders or negates
   entries is bounced here before it can pollute the membership digest. *)
let valid_rumors rumors =
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        if a < b then sorted rest else Error "rumor digest not strictly sorted"
    | [ _ ] | [] -> Ok ()
  in
  match rumors with r :: _ when r < 0 -> Error "negative rumor id" | rs -> sorted rs

let validate =
  Some
    (function
      | Push { rumors; round } ->
          if round < 0 then Error "negative round" else valid_rumors rumors
      | Push_back { rumors } -> valid_rumors rumors)

module type PARAMS = sig
  val population : int
  (** node ids are [0 .. population-1] *)

  val round_period : float
  val candidate_cap : int
  (** at most this many peers offered to the resolver per round *)
end

module Default_params = struct
  let population = 32
  let round_period = 0.5
  let candidate_cap = 8
end

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = msg

  val known : state -> Int_set.t
  val round_of : state -> int

  val degraded_entries : state -> int
  (** Times this node entered degraded mode (a majority of its peers
      simultaneously suspected by the failure detector). *)

  val degraded_exits : state -> int
  val seed_rumors : Proto.Node_id.t -> int list -> msg
  (** Build an injectable [Push] carrying fresh rumors (use with
      [Sim.inject] to originate content at a node). *)
end = struct
  type nonrec msg = msg

  type state = {
    self : Proto.Node_id.t;
    known : Int_set.t;
    round : int;
    last_exchange : (Proto.Node_id.t * float) list;  (* peer, vtime seconds *)
    degraded : bool;  (* a majority of peers is currently suspected *)
    deg_entries : int;
    deg_exits : int;
  }

  let name = "gossip"
  let equal_state (a : state) b = a = b
  let msg_kind = msg_kind
  let msg_bytes = msg_bytes
  let pp_msg = pp_msg
  let msg_codec = Some msg_codec
  let validate = validate
  let durable = None

  let pp_state ppf st =
    Format.fprintf ppf "{r%d known=%d}" st.round (Int_set.cardinal st.known)

  (* Same equivalence classes as [pp_state] above, without formatting. *)
  let fingerprint = Some (fun st -> Hashtbl.hash (st.round, Int_set.cardinal st.known))

  let known st = st.known
  let round_of st = st.round
  let degraded_entries st = st.deg_entries
  let degraded_exits st = st.deg_exits
  let degraded = Some (fun st -> st.degraded)
  let priority = None
  let seed_rumors _origin rumors = Push { rumors; round = 0 }

  let peers st =
    let self = Proto.Node_id.to_int st.self in
    List.filter_map
      (fun i -> if i = self then None else Some (Proto.Node_id.of_int i))
      (List.init P.population Fun.id)

  let init (ctx : Proto.Ctx.t) =
    ( {
        self = ctx.self;
        known = Int_set.empty;
        round = 0;
        last_exchange = [];
        degraded = false;
        deg_entries = 0;
        deg_exits = 0;
      },
      [ Proto.Action.set_timer ~id:"round" ~after:P.round_period ] )

  let touch st peer now =
    {
      st with
      last_exchange =
        (peer, now) :: List.filter (fun (p, _) -> not (Proto.Node_id.equal p peer)) st.last_exchange;
    }

  let last_seen st peer =
    List.assoc_opt peer st.last_exchange

  let merge st rumors =
    { st with known = Int_set.union st.known (Int_set.of_list rumors) }

  let h_push =
    Proto.Handler.v ~name:"push"
      ~guard:(fun _ ~src:_ m -> match m with Push _ -> true | Push_back _ -> false)
      (fun ctx st ~src m ->
        match m with
        | Push { rumors; _ } ->
            let st = merge st rumors in
            let st = touch st src (Dsim.Vtime.to_seconds ctx.now) in
            (* Push-pull: return what the sender appears to be missing. *)
            let missing =
              Int_set.elements (Int_set.diff st.known (Int_set.of_list rumors))
            in
            let reply =
              if missing = [] then []
              else [ Proto.Action.send ~dst:src (Push_back { rumors = missing }) ]
            in
            (st, reply)
        | Push_back _ -> (st, []))

  let h_push_back =
    Proto.Handler.v ~name:"push_back"
      ~guard:(fun _ ~src:_ m -> match m with Push_back _ -> true | Push _ -> false)
      (fun ctx st ~src m ->
        match m with
        | Push_back { rumors } ->
            (merge st rumors |> fun st -> touch st src (Dsim.Vtime.to_seconds ctx.now)), []
        | Push _ -> (st, []))

  let receive = [ h_push; h_push_back ]

  (* Hysteresis on the failure-detector view: enter degraded mode when a
     majority of peers has crossed the phi threshold (suspicion = 1),
     leave only once a majority has dropped back below 0.5. Reads the
     shared detector only — no RNG, so benign runs are untouched. *)
  let suspicious_majority (ctx : Proto.Ctx.t) st ~cutoff =
    let suspected =
      List.length (List.filter (fun p -> Proto.Ctx.suspicion ctx p >= cutoff) (peers st))
    in
    2 * suspected > P.population - 1

  let update_degraded ctx st =
    if st.degraded then
      if suspicious_majority ctx st ~cutoff:0.5 then st
      else { st with degraded = false; deg_exits = st.deg_exits + 1 }
    else if suspicious_majority ctx st ~cutoff:1.0 then
      { st with degraded = true; deg_entries = st.deg_entries + 1 }
    else st

  (* The gossip round: expose the peer choice with features the
     resolver families need — identity (for the restricted schedule),
     predicted rtt (for network-aware policies), staleness of the last
     exchange (for coverage-aware policies). *)
  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "round" ->
        let st = { st with round = st.round + 1 } in
        let st = update_degraded ctx st in
        let rearm = Proto.Action.set_timer ~id:"round" ~after:P.round_period in
        if Int_set.is_empty st.known then (st, [ rearm ])
        else begin
          let now = Dsim.Vtime.to_seconds ctx.now in
          let candidates =
            Dsim.Rng.sample_without_replacement ctx.rng P.candidate_cap (peers st)
          in
          (* Skip peers the detector currently suspects: pushes to them
             are wasted bandwidth while they are silent. The sample draw
             above stays unconditional so the RNG stream is identical
             whether or not anyone is suspected. *)
          let candidates =
            List.filter (fun peer -> not (Proto.Ctx.suspected ctx peer)) candidates
          in
          (* Halve fanout under queue pressure: gossip is the most
             redundant traffic in the system, so it backs off first —
             every other round is skipped outright and the surviving
             rounds consider half the sampled peers. Pressure is 0
             under unbounded queues, keeping the sample/filter RNG
             stream untouched on default configurations. *)
          let pressured = Proto.Ctx.pressure ctx >= 0.5 in
          if pressured && st.round mod 2 = 1 then (st, [ rearm ])
          else begin
          let candidates =
            if pressured then
              let keep = max 1 ((List.length candidates + 1) / 2) in
              List.filteri (fun i _ -> i < keep) candidates
            else candidates
          in
          let alternative peer =
            Core.Choice.alt
              ~features:
                [|
                  float_of_int (Proto.Node_id.to_int peer);
                  float_of_int st.round;
                  Proto.Ctx.predicted_ms ctx peer;
                  (match last_seen st peer with Some t -> now -. t | None -> 1e6);
                |]
              peer
          in
          match candidates with
          | [] -> (st, [ rearm ])  (* whole sample suspected: hold this round *)
          | _ :: _ ->
              let target =
                ctx.choose
                  (Core.Choice.make ~label:peer_label ~schema:peer_schema
                     (List.map alternative candidates))
              in
              ( st,
                [
                  Proto.Action.send ~dst:target
                    (Push { rumors = Int_set.elements st.known; round = st.round });
                  rearm;
                ] )
          end
        end
    | _ -> (st, [])

  (* Coverage objective: total knowledge across the system; higher is
     better. Normalised per node so the value is comparable across
     population sizes. *)
  let objectives =
    [
      Core.Objective.v ~name:"coverage" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int (Int_set.cardinal st.known)) 0. view);
    ]

  let properties =
    [
      (* Rumor sets only grow, so any rumor known anywhere should
         eventually be known everywhere. *)
      Core.Property.liveness ~name:"uniform-knowledge" (fun view ->
          let union, inter =
            Proto.View.fold
              (fun (u, i) _ st ->
                (Int_set.union u st.known, match i with None -> Some st.known | Some i -> Some (Int_set.inter i st.known)))
              (Int_set.empty, None) view
          in
          match inter with None -> true | Some i -> Int_set.equal union i);
    ]

  let generic_msgs st =
    if Int_set.is_empty st.known then []
    else
      let ghost = Proto.Node_id.of_int 96 in
      [ (ghost, Push { rumors = [ 1_000_000 ]; round = st.round }) ]
end

module Default = Make (Default_params)

(** BAR-style restricted peer selection: each round has exactly one
    legal partner, derived deterministically from the node's identity
    and the round number. Implemented as a resolver over the exposed
    choice — restriction is a policy, not a protocol change. *)
let restricted_resolver ~population =
  let round_c = Core.Choice.column "round" and peer_c = Core.Choice.column "peer_id" in
  Core.Resolver.make ~name:"restricted" (fun _rng site ->
      let round_c = round_c site and peer_c = peer_c site in
      let round = int_of_float (Core.Choice.value site round_c ~alt:0 ~default:0.) in
      let node = site.site_node in
      (* The pseudo-random schedule both partners could verify. *)
      let target = (((node * 7919) + (round * 104729)) mod population + population) mod population in
      let distance i =
        if peer_c < 0 then max_int
        else abs (int_of_float (Core.Choice.value site peer_c ~alt:i ~default:0.) - target)
      in
      let best = ref 0 and best_d = ref (distance 0) in
      for i = 1 to site.site_arity - 1 do
        let d = distance i in
        if d < !best_d then begin
          best := i;
          best_d := d
        end
      done;
      !best)
