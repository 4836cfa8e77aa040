(** Multi-instance Paxos with an exposed proposer choice (paper §3.1,
    "Consensus").

    Every replica is acceptor, learner, and potential proposer. Each
    command born at a replica must be assigned to a proposer — {e that}
    assignment is the choice the paper discusses: classic deployments
    hard-code a fixed leader; Mencius [OSDI'08] hard-codes round-robin;
    here the protocol exposes it (label {!proposer_label}) and the
    policy is a resolver: {!fixed_leader_resolver},
    {!round_robin_resolver}, random, greedy-RTT, lookahead or bandit.

    Instances are partitioned by proposer ([k * n + self]), so the
    optimistic fast path (skip phase 1 on owned instances, as in
    Multi-Paxos/Mencius) never conflicts; the full
    prepare/promise/accept protocol still runs on retry after loss. *)

type cmd = { origin : int; seq : int; born : float }

let pp_cmd ppf c = Format.fprintf ppf "%d.%d" c.origin c.seq

type msg =
  | Submit of { cmd : cmd }  (** forward a client command to its proposer *)
  | Prepare of { inst : int; bal : int }
  | Promise of { inst : int; bal : int; accepted : (int * cmd) option }
  | Accept_req of { inst : int; bal : int; cmd : cmd }
  | Accepted of { inst : int; bal : int; cmd : cmd }
  | Decided of { inst : int; cmd : cmd }

let msg_kind = function
  | Submit _ -> "submit"
  | Prepare _ -> "prepare"
  | Promise _ -> "promise"
  | Accept_req _ -> "accept"
  | Accepted _ -> "accepted"
  | Decided _ -> "decided"

let msg_bytes = function
  | Submit _ -> 128
  | Prepare _ -> 48
  | Promise _ -> 96
  | Accept_req _ -> 160
  | Accepted _ -> 160
  | Decided _ -> 144

let pp_msg ppf = function
  | Submit { cmd } -> Format.fprintf ppf "submit(%a)" pp_cmd cmd
  | Prepare { inst; bal } -> Format.fprintf ppf "prepare(i%d b%d)" inst bal
  | Promise { inst; bal; accepted } ->
      Format.fprintf ppf "promise(i%d b%d%s)" inst bal
        (match accepted with None -> "" | Some _ -> " acc")
  | Accept_req { inst; bal; cmd } -> Format.fprintf ppf "accept(i%d b%d %a)" inst bal pp_cmd cmd
  | Accepted { inst; bal; cmd } -> Format.fprintf ppf "accepted(i%d b%d %a)" inst bal pp_cmd cmd
  | Decided { inst; cmd } -> Format.fprintf ppf "decided(i%d %a)" inst pp_cmd cmd

let cmd_codec =
  let open Wire.Codec in
  conv
    (fun c -> (c.origin, c.seq, c.born))
    (fun (origin, seq, born) -> { origin; seq; born })
    (triple int int float)

let msg_codec =
  let open Wire.Codec in
  let cmd_c = cmd_codec in
  let ballot = pair int int in
  let ballot_cmd = triple int int cmd_c in
  let promise_c = triple int int (option (pair int cmd_c)) in
  let decided_c = pair int cmd_c in
  tagged
    ~cases:
      [
        (0, shape cmd_c);
        (1, shape ballot);
        (2, shape promise_c);
        (3, shape ballot_cmd);
        (4, shape ballot_cmd);
        (5, shape decided_c);
      ]
    (function
      | Submit { cmd } -> (0, encode cmd_c cmd)
      | Prepare { inst; bal } -> (1, encode ballot (inst, bal))
      | Promise { inst; bal; accepted } ->
          (2, encode (triple int int (option (pair int cmd_c))) (inst, bal, accepted))
      | Accept_req { inst; bal; cmd } -> (3, encode ballot_cmd (inst, bal, cmd))
      | Accepted { inst; bal; cmd } -> (4, encode ballot_cmd (inst, bal, cmd))
      | Decided { inst; cmd } -> (5, encode (pair int cmd_c) (inst, cmd)))
    (fun tag payload ->
      match tag with
      | 0 -> Result.map (fun cmd -> Submit { cmd }) (decode cmd_c payload)
      | 1 -> Result.map (fun (inst, bal) -> Prepare { inst; bal }) (decode ballot payload)
      | 2 ->
          Result.map
            (fun (inst, bal, accepted) -> Promise { inst; bal; accepted })
            (decode (triple int int (option (pair int cmd_c))) payload)
      | 3 ->
          Result.map
            (fun (inst, bal, cmd) -> Accept_req { inst; bal; cmd })
            (decode ballot_cmd payload)
      | 4 ->
          Result.map (fun (inst, bal, cmd) -> Accepted { inst; bal; cmd }) (decode ballot_cmd payload)
      | 5 -> Result.map (fun (inst, cmd) -> Decided { inst; cmd }) (decode (pair int cmd_c) payload)
      | t -> Error (Printf.sprintf "unknown paxos tag %d" t))

let proposer_label = "paxos.proposer"
let proposer_schema = Core.Choice.schema [ "replica_id"; "seq"; "is_self"; "rtt_ms" ]

module type PARAMS = sig
  val population : int
  val client_period : float
  (** seconds between locally-born commands; 0. disables the local
      client *)

  val retry_timeout : float
end

module Default_params = struct
  let population = 5
  let client_period = 1.0
  let retry_timeout = 2.0
end

module Int_map = Map.Make (Int)
module Tracked = Proto.Durability.Tracked (Int)

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = msg

  val decided : state -> cmd Int_map.t

  val latencies : state -> float list
  (** Commit latencies (seconds) of commands born at this replica,
      newest first. *)

  val born_count : state -> int

  val degraded_entries : state -> int
  (** Times this replica stepped down (entered degraded mode) because
      it suspected it could no longer reach a majority. *)

  val degraded_exits : state -> int
end = struct
  type nonrec msg = msg

  type acceptor_slot = { promised : int; accepted : (int * cmd) option }

  type proposal = {
    p_cmd : cmd;
    p_bal : int;
    p_promises : (int * (int * cmd) option) list;  (* acceptor, their accepted *)
    p_accepts : int list;
    p_phase2 : bool;  (* true once accept_req is out *)
    p_started : float;
  }

  type state = {
    self : Proto.Node_id.t;
    next_seq : int;  (* client sequence numbers *)
    next_slot : int;  (* own instance counter: inst = slot * n + self *)
    queue : cmd list;  (* commands awaiting an instance *)
    acceptor : acceptor_slot Tracked.t;
    proposals : proposal Int_map.t;
    decided : cmd Tracked.t;
    latencies : float list;
    born : int;
    degraded : bool;  (* stepped down: suspected quorum unreachable *)
    deg_entries : int;
    deg_exits : int;
  }

  let name = "paxos"

  (* Field by field: polymorphic [=] on a map depends on its tree
     shape, so two replicas holding the same bindings inserted in a
     different order would compare unequal (and it would compare the
     tracked maps' write windows too). *)
  let equal_state (a : state) b =
    Proto.Node_id.equal a.self b.self
    && a.next_seq = b.next_seq
    && a.next_slot = b.next_slot
    && a.queue = b.queue
    && Int_map.equal ( = ) a.acceptor.map b.acceptor.map
    && Int_map.equal ( = ) a.proposals b.proposals
    && Int_map.equal ( = ) a.decided.map b.decided.map
    && a.latencies = b.latencies
    && a.born = b.born
    && a.degraded = b.degraded
    && a.deg_entries = b.deg_entries
    && a.deg_exits = b.deg_exits

  let msg_kind = msg_kind
  let msg_bytes = msg_bytes
  let pp_msg = pp_msg
  let msg_codec = Some msg_codec

  (* Byzantine admission check (see {!Proto.App_intf.APP.validate}).
     Every bound below is one an honest replica can never violate:
     commands are born at a real replica with a non-negative sequence
     and a finite timestamp; ballots start at [bal_of ~round:0], which
     is at least 1; instances count up from 0; and a promise only ever
     relays an acceptance from a strictly lower ballot than the one it
     promises. *)
  let valid_cmd c =
    if c.origin < 0 || c.origin >= P.population then Error "cmd origin outside population"
    else if c.seq < 0 then Error "negative cmd seq"
    else if not (Float.is_finite c.born && c.born >= 0.) then Error "cmd born not a timestamp"
    else Ok ()

  let valid_slot inst bal =
    if inst < 0 then Error "negative instance"
    else if bal < 1 then Error "ballot below 1"
    else Ok ()

  let validate =
    Some
      (fun m ->
        let ( let* ) = Result.bind in
        match m with
        | Submit { cmd } -> valid_cmd cmd
        | Prepare { inst; bal } -> valid_slot inst bal
        | Promise { inst; bal; accepted } -> (
            let* () = valid_slot inst bal in
            match accepted with
            | None -> Ok ()
            | Some (b, c) ->
                if b < 1 || b >= bal then Error "accepted ballot not below promised"
                else valid_cmd c)
        | Accept_req { inst; bal; cmd } | Accepted { inst; bal; cmd } ->
            let* () = valid_slot inst bal in
            valid_cmd cmd
        | Decided { inst; cmd } ->
            let* () = if inst < 0 then Error "negative instance" else Ok () in
            valid_cmd cmd)

  let pp_state ppf st =
    Format.fprintf ppf "{q=%d props=%d dec=%d}" (List.length st.queue)
      (Int_map.cardinal st.proposals) (Int_map.cardinal st.decided.map)

  (* Same equivalence classes as [pp_state] above, without formatting. *)
  let fingerprint =
    Some
      (fun st ->
        Hashtbl.hash
          (List.length st.queue, Int_map.cardinal st.proposals, Int_map.cardinal st.decided.map))

  let decided st = st.decided.map
  let latencies st = st.latencies
  let born_count st = st.born
  let degraded_entries st = st.deg_entries
  let degraded_exits st = st.deg_exits
  let degraded = Some (fun st -> st.degraded)

  (* Prioritise accepts over client proposals: phase-2 traffic commits
     in-flight instances, new Submits only add load, so under overflow
     the consensus core keeps making progress while intake is shed. *)
  let priority =
    Some
      (function
      | Accept_req _ | Accepted _ -> 3
      | Prepare _ | Promise _ -> 2
      | Decided _ -> 1
      | Submit _ -> 0)

  (* ---------- durability ----------

     What Paxos must never forget is exactly what the acceptor and
     learner roles have externalised: promises made, values accepted,
     decisions learned — plus the instance/sequence counters that stop
     a reborn proposer from reusing an instance its previous life
     already spent. Proposer scratch state ([queue], [proposals]) and
     telemetry are rebuilt or abandoned; a lost in-flight command is a
     liveness wart, a reused instance is an agreement violation. *)

  let slot_c =
    let open Wire.Codec in
    conv
      (fun (s : acceptor_slot) -> (s.promised, s.accepted))
      (fun (promised, accepted) -> { promised; accepted })
      (pair int (option (pair int cmd_codec)))

  let slot_entry = Wire.Codec.(pair int slot_c)
  let decided_entry = Wire.Codec.(pair int cmd_codec)

  (* Snapshots and WAL deltas share one wire shape: the counters
     (absolute) and two binding lists — the whole maps in a snapshot,
     written straight from the tracked maps, and only the changed
     entries in a delta. *)
  let durable_c = Wire.Codec.(pair (pair int int) (pair (list slot_entry) (list decided_entry)))

  let projection_c =
    Wire.Codec.conv
      (fun st -> ((st.next_seq, st.next_slot), (st.acceptor, st.decided)))
      (fun ((next_seq, next_slot), (acceptor, decided)) ->
        {
          self = Proto.Node_id.of_int 0;
          (* placeholder: [restore] keeps the booted self *)
          next_seq;
          next_slot;
          queue = [];
          acceptor;
          proposals = Int_map.empty;
          decided;
          latencies = [];
          born = 0;
          degraded = false;
          deg_entries = 0;
          deg_exits = 0;
        })
      Wire.Codec.(
        pair (pair int int) (pair (Tracked.codec slot_entry) (Tracked.codec decided_entry)))

  let durable =
    let log ~prev ~next =
      let slots = Tracked.changes ~prev:prev.acceptor ~next:next.acceptor in
      let dec = Tracked.changes ~prev:prev.decided ~next:next.decided in
      if
        slots = [] && dec = [] && prev.next_seq = next.next_seq
        && prev.next_slot = next.next_slot
      then None
      else Some (Wire.Codec.encode durable_c ((next.next_seq, next.next_slot), (slots, dec)))
    in
    let replay st record =
      Result.map
        (fun ((next_seq, next_slot), (slots, dec)) ->
          let add m (k, v) = Tracked.add k v m in
          {
            st with
            next_seq = Int.max st.next_seq next_seq;
            next_slot = Int.max st.next_slot next_slot;
            acceptor = List.fold_left add st.acceptor slots;
            decided = List.fold_left add st.decided dec;
          })
        (Wire.Codec.decode durable_c record)
    in
    let restore ~boot ~durable =
      {
        boot with
        next_seq = durable.next_seq;
        next_slot = durable.next_slot;
        acceptor = durable.acceptor;
        decided = durable.decided;
      }
    in
    Some (Proto.Durability.v ~snapshot_every:64 ~log ~replay ~restore projection_c)

  let n = P.population
  let majority = (n / 2) + 1
  let replicas = List.init n Proto.Node_id.of_int
  let others st = List.filter (fun r -> not (Proto.Node_id.equal r st.self)) replicas
  let bal_of ~round ~id = (round * n) + id + 1
  let self_int st = Proto.Node_id.to_int st.self

  let init (ctx : Proto.Ctx.t) =
    (* A reborn proposer must never reuse an instance from its previous
       life. The durable [next_slot], recovered through [restore], is
       what remembers how far the old life got — which makes losing the
       disk (an amnesia crash) exactly the failure this protocol cannot
       survive, and the durability layer load-bearing for agreement. *)
    let st =
      {
        self = ctx.self;
        next_seq = 0;
        next_slot = 0;
        queue = [];
        acceptor = Tracked.empty slot_entry;
        proposals = Int_map.empty;
        decided = Tracked.empty decided_entry;
        latencies = [];
        born = 0;
        degraded = false;
        deg_entries = 0;
        deg_exits = 0;
      }
    in
    let timers =
      [ Proto.Action.set_timer ~id:"retry" ~after:P.retry_timeout ]
      @
      if P.client_period > 0. then
        [ Proto.Action.set_timer ~id:"client" ~after:P.client_period ]
      else []
    in
    (st, timers)

  let slot st inst =
    Option.value ~default:{ promised = 0; accepted = None } (Int_map.find_opt inst st.acceptor.map)

  let broadcast st msg = List.map (fun r -> Proto.Action.send ~dst:r msg) (others st)

  (* Start phase 2 for [cmd] on a fresh owned instance with the
     optimistic round-0 ballot; owned instances never conflict, so this
     normally decides in one round trip. *)
  let propose_owned (ctx : Proto.Ctx.t) st cmd =
    let inst = (st.next_slot * n) + self_int st in
    let bal = bal_of ~round:0 ~id:(self_int st) in
    let now = Dsim.Vtime.to_seconds ctx.now in
    let prop =
      { p_cmd = cmd; p_bal = bal; p_promises = []; p_accepts = [ self_int st ]; p_phase2 = true; p_started = now }
    in
    (* Accept our own proposal locally. *)
    let acceptor = Tracked.add inst { promised = bal; accepted = Some (bal, cmd) } st.acceptor in
    let st =
      {
        st with
        next_slot = st.next_slot + 1;
        proposals = Int_map.add inst prop st.proposals;
        acceptor;
      }
    in
    (st, broadcast st (Accept_req { inst; bal; cmd }))

  let record_decision (ctx : Proto.Ctx.t) st inst cmd =
    if Int_map.mem inst st.decided.map then st
    else begin
      let st = { st with decided = Tracked.add inst cmd st.decided } in
      if cmd.origin = self_int st then
        { st with latencies = (Dsim.Vtime.to_seconds ctx.now -. cmd.born) :: st.latencies }
      else st
    end

  let h_submit =
    Proto.Handler.v ~name:"submit"
      ~guard:(fun _ ~src:_ m -> match m with Submit _ -> true | _ -> false)
      (fun ctx st ~src:_ m ->
        match m with
        | Submit { cmd } -> propose_owned ctx st cmd
        | _ -> (st, []))

  let h_prepare =
    Proto.Handler.v ~name:"prepare"
      ~guard:(fun _ ~src:_ m -> match m with Prepare _ -> true | _ -> false)
      (fun _ctx st ~src m ->
        match m with
        | Prepare { inst; bal } ->
            let s = slot st inst in
            if bal > s.promised then
              ( { st with acceptor = Tracked.add inst { s with promised = bal } st.acceptor },
                [ Proto.Action.send ~dst:src (Promise { inst; bal; accepted = s.accepted }) ] )
            else (st, [])
        | _ -> (st, []))

  let h_promise =
    Proto.Handler.v ~name:"promise"
      ~guard:(fun _ ~src:_ m -> match m with Promise _ -> true | _ -> false)
      (fun _ctx st ~src m ->
        match m with
        | Promise { inst; bal; accepted } -> (
            match Int_map.find_opt inst st.proposals with
            | Some prop when prop.p_bal = bal && not prop.p_phase2 ->
                let sender = Proto.Node_id.to_int src in
                if List.mem_assoc sender prop.p_promises then (st, [])
                else begin
                  let prop =
                    { prop with p_promises = (sender, accepted) :: prop.p_promises }
                  in
                  (* Count our own implicit promise. *)
                  if List.length prop.p_promises + 1 >= majority then begin
                    (* Phase 1 done: adopt the highest accepted value if
                       any acceptor reported one, else our command. *)
                    let adopted =
                      List.fold_left
                        (fun best (_, acc) ->
                          match (best, acc) with
                          | None, x -> x
                          | Some (b, _), Some (b', v') when b' > b -> Some (b', v')
                          | Some _, _ -> best)
                        None prop.p_promises
                    in
                    let value = match adopted with Some (_, v) -> v | None -> prop.p_cmd in
                    let prop = { prop with p_phase2 = true; p_accepts = [ self_int st ] } in
                    let acceptor =
                      Tracked.add inst
                        { promised = bal; accepted = Some (bal, value) }
                        st.acceptor
                    in
                    ( { st with proposals = Int_map.add inst prop st.proposals; acceptor },
                      broadcast st (Accept_req { inst; bal; cmd = value }) )
                  end
                  else ({ st with proposals = Int_map.add inst prop st.proposals }, [])
                end
            | Some _ | None -> (st, []))
        | _ -> (st, []))

  let h_accept_req =
    Proto.Handler.v ~name:"accept_req"
      ~guard:(fun _ ~src:_ m -> match m with Accept_req _ -> true | _ -> false)
      (fun _ctx st ~src m ->
        match m with
        | Accept_req { inst; bal; cmd } ->
            let s = slot st inst in
            (* One ballot carries one value: re-accepting the same
               ballot is idempotent, but a *different* value at an
               already-accepted ballot (an amnesiac proposer reusing
               its ballot) must be refused or agreement dies. *)
            let value_consistent =
              match s.accepted with
              | Some (b, c) when b = bal -> c = cmd
              | Some _ | None -> true
            in
            if bal >= s.promised && value_consistent then
              ( {
                  st with
                  acceptor = Tracked.add inst { promised = bal; accepted = Some (bal, cmd) } st.acceptor;
                },
                [ Proto.Action.send ~dst:src (Accepted { inst; bal; cmd }) ] )
            else (st, [])
        | _ -> (st, []))

  let h_accepted =
    Proto.Handler.v ~name:"accepted"
      ~guard:(fun _ ~src:_ m -> match m with Accepted _ -> true | _ -> false)
      (fun ctx st ~src m ->
        match m with
        | Accepted { inst; bal; cmd } -> (
            match Int_map.find_opt inst st.proposals with
            | Some prop when prop.p_bal = bal && prop.p_phase2 ->
                let sender = Proto.Node_id.to_int src in
                if List.mem sender prop.p_accepts then (st, [])
                else begin
                  let prop = { prop with p_accepts = sender :: prop.p_accepts } in
                  if List.length prop.p_accepts >= majority then begin
                    let st = record_decision ctx st inst cmd in
                    let st = { st with proposals = Int_map.remove inst st.proposals } in
                    (st, broadcast st (Decided { inst; cmd }))
                  end
                  else ({ st with proposals = Int_map.add inst prop st.proposals }, [])
                end
            | Some _ | None -> (st, []))
        | _ -> (st, []))

  let h_decided =
    Proto.Handler.v ~name:"decided"
      ~guard:(fun _ ~src:_ m -> match m with Decided _ -> true | _ -> false)
      (fun ctx st ~src m ->
        match m with
        | Decided { inst; cmd } ->
            (* Byzantine hardening, vacuous on honest traffic: instances
               are partitioned by proposer, so a decision for [inst] is
               only ever announced by its owner ([inst mod n]), and it
               can never contradict a value this replica itself accepted
               for the instance (a single-owner instance keeps one value
               across ballots). A mutated [Decided] failing either check
               is ignored — the honest announcement still arrives. *)
            let from_owner = Proto.Node_id.to_int src = inst mod n in
            let consistent =
              match Int_map.find_opt inst st.acceptor.map with
              | Some { accepted = Some (_, c); _ } -> c = cmd
              | _ -> true
            in
            if from_owner && consistent then
              ( { (record_decision ctx st inst cmd) with proposals = Int_map.remove inst st.proposals },
                [] )
            else (st, [])
        | _ -> (st, []))

  let receive = [ h_submit; h_prepare; h_promise; h_accept_req; h_accepted; h_decided ]

  (* The exposed choice: which replica proposes this freshly-born
     command? Self-delivery is free; remote proposers cost one
     forwarding hop but may sit closer to the quorum or be less
     loaded. *)
  let assign_proposer (ctx : Proto.Ctx.t) st cmd =
    let alternative replica =
      let rid = Proto.Node_id.to_int replica in
      Core.Choice.alt
        ~features:
          [|
            float_of_int rid;
            float_of_int cmd.seq;
            (if rid = self_int st then 1. else 0.);
            (if rid = self_int st then 0. else Proto.Ctx.predicted_ms ctx replica);
          |]
        replica
    in
    ctx.choose
      (Core.Choice.make ~label:proposer_label ~schema:proposer_schema
         (List.map alternative replicas))

  (* Step-down rule: a proposer that suspects it cannot reach a
     majority (itself included) stops proposing — broadcasting prepares
     into a partition wins nothing and floods the minority side. Enter
     when the unsuspected peers plus self no longer form a majority;
     exit with hysteresis, once a majority of peers has dropped back
     below half suspicion. By symmetry of a partition this is the
     locally computable dual of "suspected by a majority": the nodes
     the majority side suspects are exactly those that cannot see a
     majority themselves. *)
  let quorum_reachable (ctx : Proto.Ctx.t) st ~cutoff =
    let reachable =
      1 + List.length (List.filter (fun r -> Proto.Ctx.suspicion ctx r < cutoff) (others st))
    in
    reachable >= majority

  let update_degraded ctx st =
    if st.degraded then
      if quorum_reachable ctx st ~cutoff:0.5 then
        { st with degraded = false; deg_exits = st.deg_exits + 1 }
      else st
    else if not (quorum_reachable ctx st ~cutoff:1.0) then
      { st with degraded = true; deg_entries = st.deg_entries + 1 }
    else st

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "client" ->
        let now = Dsim.Vtime.to_seconds ctx.now in
        let cmd = { origin = self_int st; seq = st.next_seq; born = now } in
        let st = { st with next_seq = st.next_seq + 1; born = st.born + 1 } in
        let rearm = Proto.Action.set_timer ~id:"client" ~after:P.client_period in
        let st = update_degraded ctx st in
        if st.degraded || Proto.Ctx.pressure ctx >= 0.75 then
          (* Stepped down, or our own mailbox is nearly full: park the
             command instead of proposing — new client intake only adds
             load while phase-2 traffic is what commits instances. The
             backlog is flushed once healthy. (Pressure is 0 under
             unbounded queues, so only the step-down case fires then.) *)
          ({ st with queue = cmd :: st.queue }, [ rearm ])
        else begin
          (* Flush anything parked while stepped down, oldest first. *)
          let backlog = List.rev st.queue in
          let st, flushed =
            List.fold_left
              (fun (st, acc) c ->
                let st, actions = propose_owned ctx st c in
                (st, acc @ actions))
              ({ st with queue = [] }, [])
              backlog
          in
          let proposer = assign_proposer ctx st cmd in
          if Proto.Node_id.equal proposer st.self then
            let st, actions = propose_owned ctx st cmd in
            (st, flushed @ actions @ [ rearm ])
          else (st, flushed @ [ Proto.Action.send ~dst:proposer (Submit { cmd }); rearm ])
        end
    | "retry" ->
        let st = update_degraded ctx st in
        let rearm = Proto.Action.set_timer ~id:"retry" ~after:P.retry_timeout in
        if st.degraded then (st, [ rearm ])
        else begin
        (* Re-run full Paxos (phase 1, higher ballot) for stuck
           proposals — lost messages or contention. *)
        let now = Dsim.Vtime.to_seconds ctx.now in
        let st, actions =
          Int_map.fold
            (fun inst prop (st, actions) ->
              if now -. prop.p_started <= P.retry_timeout then (st, actions)
              else begin
                let round = (prop.p_bal / n) + 1 in
                let bal = bal_of ~round ~id:(self_int st) in
                let prop =
                  { prop with p_bal = bal; p_promises = []; p_accepts = []; p_phase2 = false; p_started = now }
                in
                let s = slot st inst in
                let acceptor =
                  if bal > s.promised then
                    Tracked.add inst { s with promised = bal } st.acceptor
                  else st.acceptor
                in
                ( { st with proposals = Int_map.add inst prop st.proposals; acceptor },
                  actions @ broadcast st (Prepare { inst; bal }) )
              end)
            st.proposals (st, [])
        in
        (st, actions @ [ rearm ])
        end
    | _ -> (st, [])

  (* Agreement: no two replicas decide different commands for one
     instance — the safety property Paxos exists to provide. *)
  let agreement view =
    let decisions = Hashtbl.create 64 in
    Proto.View.fold
      (fun ok _ st ->
        Int_map.fold
          (fun inst cmd ok ->
            match Hashtbl.find_opt decisions inst with
            | None ->
                Hashtbl.replace decisions inst cmd;
                ok
            | Some cmd' -> ok && cmd = cmd')
          st.decided.map ok)
      true view

  (* Agreement kept node by node, for the engine: each live node's
     [decided] map as last seen, and the instances two of them decide
     differently. When a node's map changes, only the instances it
     wrote can change side. Its write window names them, or else every
     instance of its old and new map does. Each is rechecked against
     all the maps, so the verdict is the fold's by construction. A copy
     copies one pointer per endpoint. *)
  module Agreement = struct
    module Int_set = Set.Make (Int)

    type t = {
      mutable seen : cmd Tracked.t array;  (* endpoint -> decided; [absent] when not live *)
      mutable disputed : Int_set.t;
    }

    let absent = Tracked.empty decided_entry

    (* Does a map from endpoint [e] on decide [inst] other than [first],
       or than the first map that decides it? *)
    let rec split t inst first e =
      e < Array.length t.seen
      &&
      match Int_map.find inst t.seen.(e).map with
      | exception Not_found -> split t inst first (e + 1)
      | cmd -> (
          match first with
          | None -> split t inst (Some cmd) (e + 1)
          | Some c -> c <> cmd || split t inst first (e + 1))

    let recheck t inst =
      t.disputed <- (if split t inst None 0 then Int_set.add else Int_set.remove) inst t.disputed

    let update t e st =
      let n = Array.length t.seen in
      if e >= n then t.seen <- Array.append t.seen (Array.make (e + 1 - n) absent);
      let prev = t.seen.(e) and next = match st with Some st -> st.decided | None -> absent in
      if prev != next then begin
        t.seen.(e) <- next;
        match Tracked.written ~prev ~next with
        | Some insts -> List.iter (recheck t) insts
        | None ->
            Int_map.iter (fun inst _ -> recheck t inst) prev.map;
            Int_map.iter (fun inst _ -> recheck t inst) next.map
      end

    let start view =
      Proto.View.tracker ~update
        ~verdict:(fun t -> Int_set.is_empty t.disputed)
        ~copy:(fun t -> { t with seen = Array.copy t.seen })
        { seen = [||]; disputed = Int_set.empty }
        view
  end

  let properties =
    [
      Core.Property.safety ~name:"agreement" ~track:Agreement.start agreement;
      Core.Property.liveness ~name:"all-committed" (fun view ->
          Proto.View.fold
            (fun ok _ st -> ok && List.length st.latencies = st.born)
            true view);
    ]

  (* Objectives: commit as much as possible, as fast as possible. The
     cumulative-latency term is what lets a lookahead (or a bandit
     comparing reward deltas) tell two futures apart when both commit
     the command within the horizon but one takes an extra WAN hop. *)
  let objectives =
    [
      Core.Objective.v ~name:"commit-progress" (fun view ->
          Proto.View.fold
            (fun acc _ st ->
              acc
              +. float_of_int (Int_map.cardinal st.decided.map)
              -. (0.25 *. float_of_int (List.length st.queue + Int_map.cardinal st.proposals)))
            0. view);
      Core.Objective.v ~name:"commit-latency" ~weight:2.0 (fun view ->
          Proto.View.fold
            (fun acc _ st -> acc -. List.fold_left ( +. ) 0. st.latencies)
            0. view);
    ]

  let generic_msgs st =
    if Int_map.is_empty st.decided.map then []
    else
      let ghost = 94 in
      [
        ( Proto.Node_id.of_int ghost,
          Accept_req
            {
              inst = 0;
              bal = bal_of ~round:9 ~id:(ghost mod n);
              cmd = { origin = ghost; seq = 0; born = 0. };
            } );
      ]
end

module Default = Make (Default_params)

let replica_id = Core.Choice.column "replica_id"

(* The last alternative whose [replica_id] is [target]; 0 when none is
   (or the site has no [replica_id]). *)
let replica site target =
  let c = replica_id site in
  let best = ref 0 in
  if c >= 0 then
    for i = 0 to site.site_arity - 1 do
      if int_of_float (Core.Choice.value site c ~alt:i ~default:0.) = target then best := i
    done;
  !best

(** Classic deployment: node 0 proposes everything. *)
let fixed_leader_resolver ~leader =
  Core.Resolver.make ~name:"fixed-leader" (fun _rng site -> replica site leader)

(** Mencius-style rotation: command [seq] born at replica [r] goes to
    replica [(r + seq) mod n] — every replica proposes in turn. *)
let round_robin_resolver ~population =
  let seq_c = Core.Choice.column "seq" in
  Core.Resolver.make ~name:"round-robin" (fun _rng site ->
      let seq_c = seq_c site in
      let seq = int_of_float (Core.Choice.value site seq_c ~alt:0 ~default:0.) in
      replica site (((site.site_node + seq) mod population + population) mod population))

(** Always propose locally — zero forwarding cost, the latency-greedy
    policy an RTT-aware resolver converges to. *)
let self_resolver =
  let is_self = Core.Choice.column "is_self" in
  Core.Resolver.make ~name:"self" (fun _rng site ->
      let c = is_self site in
      let best = ref 0 in
      for i = 0 to site.site_arity - 1 do
        if Core.Choice.value site c ~alt:i ~default:0. > 0.5 then best := i
      done;
      !best)
