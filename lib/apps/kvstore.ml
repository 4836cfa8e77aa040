(** A primary-backup replicated key-value store whose {e read-replica
    selection} is the exposed choice (paper §3.2: "weaker consistency
    guarantees ... are often best expressed in terms of performance").

    Writes flow through the primary (node 0), which sequences them and
    broadcasts applies; replicas apply in order. Reads may be served by
    {e any} replica — the primary is always fresh but possibly far; a
    nearby replica is fast but possibly behind. The exposed choice
    {!read_label} carries exactly the features that tension needs
    (proximity, the freshest sequence number each replica was last seen
    at, the reader's own session floor), and the safety property
    [monotonic-reads] says what must never happen: a session observing
    the log run backwards. Hard-coded policies (always-primary,
    always-nearest) sit at the two ends of the tradeoff; resolvers can
    live anywhere on it. *)

module Int_map = Map.Make (Int)
module Tracked = Proto.Durability.Tracked (Int)

type msg =
  | Write of { key : int; origin : Proto.Node_id.t }
  | Write_done of { seq : int; born : float }
  | Apply of { seq : int; key : int; value : int }
  | Read_req of { rid : int; key : int; origin : Proto.Node_id.t; born : float }
  | Read_reply of { rid : int; key : int; value : int; applied_seq : int; born : float }
  | Sync_req of { have : int }
      (** replica -> primary anti-entropy: "my applied_seq is [have],
          re-send what I'm missing" *)
  | Read_reject of { rid : int; retryable : bool }
      (** replica -> session: the read was shed under queue pressure;
          [retryable] says the session may re-issue it elsewhere *)

let msg_kind = function
  | Write _ -> "write"
  | Write_done _ -> "write_done"
  | Apply _ -> "apply"
  | Read_req _ -> "read_req"
  | Read_reply _ -> "read_reply"
  | Sync_req _ -> "sync"
  | Read_reject _ -> "read_reject"

let msg_bytes = function
  | Write _ -> 96
  | Write_done _ -> 48
  | Apply _ -> 128
  | Read_req _ -> 64
  | Read_reply _ -> 128
  | Sync_req _ -> 32
  | Read_reject _ -> 40

let pp_msg ppf = function
  | Write { key; _ } -> Format.fprintf ppf "write(k%d)" key
  | Write_done { seq; _ } -> Format.fprintf ppf "write_done(s%d)" seq
  | Apply { seq; key; _ } -> Format.fprintf ppf "apply(s%d k%d)" seq key
  | Read_req { key; _ } -> Format.fprintf ppf "read(k%d)" key
  | Read_reply { key; applied_seq; _ } -> Format.fprintf ppf "reply(k%d s%d)" key applied_seq
  | Sync_req { have } -> Format.fprintf ppf "sync(s%d)" have
  | Read_reject { rid; _ } -> Format.fprintf ppf "reject(r%d)" rid

let msg_codec =
  let open Wire.Codec in
  let node = conv Proto.Node_id.to_int Proto.Node_id.of_int int in
  tagged
    ~cases:
      [
        (0, shape (pair int node));
        (1, shape (pair int float));
        (2, shape (triple int int int));
        (3, shape (pair (pair int int) (pair node float)));
        (4, shape (pair (triple int int int) (pair int float)));
        (5, shape int);
        (6, shape (pair int bool));
      ]
    (function
      | Write { key; origin } -> (0, encode (pair int node) (key, origin))
      | Write_done { seq; born } -> (1, encode (pair int float) (seq, born))
      | Apply { seq; key; value } -> (2, encode (triple int int int) (seq, key, value))
      | Read_req { rid; key; origin; born } ->
          (3, encode (pair (pair int int) (pair node float)) ((rid, key), (origin, born)))
      | Read_reply { rid; key; value; applied_seq; born } ->
          (4, encode (pair (triple int int int) (pair int float)) ((rid, key, value), (applied_seq, born)))
      | Sync_req { have } -> (5, encode int have)
      | Read_reject { rid; retryable } -> (6, encode (pair int bool) (rid, retryable)))
    (fun tag payload ->
      match tag with
      | 0 -> Result.map (fun (key, origin) -> Write { key; origin }) (decode (pair int node) payload)
      | 1 -> Result.map (fun (seq, born) -> Write_done { seq; born }) (decode (pair int float) payload)
      | 2 ->
          Result.map
            (fun (seq, key, value) -> Apply { seq; key; value })
            (decode (triple int int int) payload)
      | 3 ->
          Result.map
            (fun ((rid, key), (origin, born)) -> Read_req { rid; key; origin; born })
            (decode (pair (pair int int) (pair node float)) payload)
      | 4 ->
          Result.map
            (fun ((rid, key, value), (applied_seq, born)) ->
              Read_reply { rid; key; value; applied_seq; born })
            (decode (pair (triple int int int) (pair int float)) payload)
      | 5 -> Result.map (fun have -> Sync_req { have }) (decode int payload)
      | 6 ->
          Result.map
            (fun (rid, retryable) -> Read_reject { rid; retryable })
            (decode (pair int bool) payload)
      | t -> Error (Printf.sprintf "unknown kvstore tag %d" t))

let read_label = "read.replica"
let read_schema = Core.Choice.schema [ "replica_id"; "is_primary"; "rtt_ms"; "known_seq"; "floor" ]

module type PARAMS = sig
  val population : int
  val keys : int

  val write_period : float
  (** per-client write interval; 0. disables *)

  val read_period : float
  (** per-client read interval; 0. disables *)
end

module Default_params = struct
  let population = 5
  let keys = 16
  let write_period = 0.4
  let read_period = 0.3
end

module Make (P : PARAMS) : sig
  include Proto.App_intf.APP with type msg = msg

  val applied_seq : state -> int
  val read_latencies : state -> float list
  val write_latencies : state -> float list
  val monotonic_violations : state -> int
  val reads_done : state -> int
  val staleness_sum : state -> int

  val degraded_entries : state -> int
  (** Times this node entered read-only degraded mode (a replica
      suspecting the primary, or the primary suspecting quorum loss). *)

  val degraded_exits : state -> int

  val reads_rejected : state -> int
  (** Reads this session saw shed under queue pressure (retryable
      {!Read_reject} replies). *)
end = struct
  type nonrec msg = msg

  type state = {
    self : Proto.Node_id.t;
    store : int Tracked.t;  (* key -> last writer sequence *)
    applied_seq : int;
    buffer : (int * int) Int_map.t;  (* out-of-order applies: seq -> (key, value) *)
    head_seq : int;  (* primary only *)
    write_origins : (int * (Proto.Node_id.t * float)) list;  (* seq -> origin, born *)
    read_floor : int;  (* freshest applied_seq any read reply showed us *)
    write_floor : int;  (* freshest of our own acked writes *)
    staleness_sum : int;  (* total seqs-behind-freshest across reads *)
    known_seq : (Proto.Node_id.t * int) list;  (* last applied_seq seen per replica *)
    next_rid : int;  (* read-request ids issued by this session *)
    last_rid : int;  (* newest reply this session has processed *)
    history : (int * int) Tracked.t;  (* primary: seq -> (key, value), for anti-entropy *)
    read_lat : float list;
    write_lat : float list;
    mono_violations : int;
    reads : int;
    degraded : bool;  (* read-only: writes are shed, reads keep working *)
    deg_entries : int;
    deg_exits : int;
    reads_rejected : int;  (* replies shed under pressure, seen by this session *)
  }

  let name = "kvstore"

  let equal_state (a : state) b =
    Proto.Node_id.equal a.self b.self
    && Int_map.equal Int.equal a.store.map b.store.map
    && a.applied_seq = b.applied_seq
    && Int_map.equal ( = ) a.buffer b.buffer
    && a.head_seq = b.head_seq
    && a.write_origins = b.write_origins
    && a.read_floor = b.read_floor
    && a.write_floor = b.write_floor
    && a.staleness_sum = b.staleness_sum
    && a.known_seq = b.known_seq
    && a.next_rid = b.next_rid
    && a.last_rid = b.last_rid
    && Int_map.equal ( = ) a.history.map b.history.map
    && a.read_lat = b.read_lat
    && a.write_lat = b.write_lat
    && a.mono_violations = b.mono_violations
    && a.reads = b.reads
    && a.degraded = b.degraded
    && a.deg_entries = b.deg_entries
    && a.deg_exits = b.deg_exits
    && a.reads_rejected = b.reads_rejected

  let msg_kind = msg_kind
  let msg_bytes = msg_bytes
  let pp_msg = pp_msg
  let msg_codec = Some msg_codec

  (* Byzantine admission check (see {!Proto.App_intf.APP.validate}).
     Honest traffic can never trip these: keys are drawn in
     [0, P.keys), every node id names a real replica, read ids and
     sequence numbers count up from 0 (the primary's log from 1), and
     born timestamps are finite simulation times. *)
  let valid_key key = if key < 0 || key >= P.keys then Error "key outside keyspace" else Ok ()

  let valid_node who origin =
    if Proto.Node_id.to_int origin >= P.population then
      Error (who ^ " outside population")
    else Ok ()

  let valid_born born =
    if not (Float.is_finite born && born >= 0.) then Error "born not a timestamp" else Ok ()

  let validate =
    Some
      (fun m ->
        let ( let* ) = Result.bind in
        match m with
        | Write { key; origin } ->
            let* () = valid_key key in
            valid_node "write origin" origin
        | Write_done { seq; born } ->
            let* () = if seq < 1 then Error "write seq below 1" else Ok () in
            valid_born born
        | Apply { seq; key; value } ->
            let* () = if seq < 1 then Error "apply seq below 1" else Ok () in
            let* () = valid_key key in
            (* The store maps a key to its last writer's sequence
               number, so an honest apply always carries [value = seq]
               — a mutation of either field breaks the equality. *)
            if value <> seq then Error "apply value/seq mismatch" else Ok ()
        | Read_req { rid; key; origin; born } ->
            let* () = if rid < 0 then Error "negative read id" else Ok () in
            let* () = valid_key key in
            let* () = valid_node "read origin" origin in
            valid_born born
        | Read_reply { rid; key; value; applied_seq; born } ->
            let* () = if rid < 0 then Error "negative read id" else Ok () in
            let* () = valid_key key in
            let* () = if value < 0 then Error "negative reply value" else Ok () in
            let* () = if applied_seq < 0 then Error "negative applied seq" else Ok () in
            (* A stored value is the sequence number of some applied
               write, so it can never exceed the replica's applied
               position. *)
            let* () =
              if value > applied_seq then Error "reply value ahead of applied seq" else Ok ()
            in
            valid_born born
        | Sync_req { have } -> if have < 0 then Error "negative sync floor" else Ok ()
        | Read_reject { rid; retryable = _ } ->
            if rid < 0 then Error "negative read id" else Ok ())

  (* ---------- durability ----------

     What must survive a crash is the committed data path: the store
     itself, how far it has applied, and (on the primary) the write
     sequencer and the anti-entropy history — losing [head_seq] would
     let a reborn primary re-issue sequence numbers and fork the log.
     Session state (read/write floors, rids) and the out-of-order
     [buffer] are deliberately transient: a reborn session starts a
     fresh one, and anti-entropy refetches whatever the buffer held. *)

  let store_entry = Wire.Codec.(pair int int)
  let history_entry = Wire.Codec.(pair int (pair int int))

  (* As in paxos: a snapshot writes the whole tracked maps, a WAL delta
     the changed bindings, in the same wire shape. *)
  let durable_c =
    Wire.Codec.(pair (pair int int) (pair (list store_entry) (list history_entry)))

  let projection_c =
    Wire.Codec.conv
      (fun st -> ((st.applied_seq, st.head_seq), (st.store, st.history)))
      (fun ((applied_seq, head_seq), (store, history)) ->
        {
          self = Proto.Node_id.of_int 0;
          (* placeholder: [restore] keeps the booted self *)
          store;
          applied_seq;
          buffer = Int_map.empty;
          head_seq;
          write_origins = [];
          read_floor = 0;
          write_floor = 0;
          staleness_sum = 0;
          known_seq = [];
          next_rid = 0;
          last_rid = 0;
          history;
          read_lat = [];
          write_lat = [];
          mono_violations = 0;
          reads = 0;
          degraded = false;
          deg_entries = 0;
          deg_exits = 0;
          reads_rejected = 0;
        })
      Wire.Codec.(
        pair (pair int int) (pair (Tracked.codec store_entry) (Tracked.codec history_entry)))

  let durable =
    let log ~prev ~next =
      let store = Tracked.changes ~prev:prev.store ~next:next.store in
      let history = Tracked.changes ~prev:prev.history ~next:next.history in
      if
        store = [] && history = [] && prev.applied_seq = next.applied_seq
        && prev.head_seq = next.head_seq
      then None
      else
        Some
          (Wire.Codec.encode durable_c
             ((next.applied_seq, next.head_seq), (store, history)))
    in
    let replay st record =
      Result.map
        (fun ((applied_seq, head_seq), (store, history)) ->
          let add m (k, v) = Tracked.add k v m in
          {
            st with
            applied_seq = Int.max st.applied_seq applied_seq;
            head_seq = Int.max st.head_seq head_seq;
            store = List.fold_left add st.store store;
            history = List.fold_left add st.history history;
          })
        (Wire.Codec.decode durable_c record)
    in
    let restore ~boot ~durable =
      {
        boot with
        store = durable.store;
        applied_seq = durable.applied_seq;
        head_seq = durable.head_seq;
        history = durable.history;
      }
    in
    Some (Proto.Durability.v ~snapshot_every:64 ~log ~replay ~restore projection_c)

  let pp_state ppf st =
    Format.fprintf ppf "{applied=%d reads=%d viol=%d}" st.applied_seq st.reads st.mono_violations

  (* Same equivalence classes as [pp_state] above, without formatting. *)
  let fingerprint =
    Some (fun st -> Hashtbl.hash (st.applied_seq, st.reads, st.mono_violations))

  let applied_seq st = st.applied_seq
  let read_latencies st = st.read_lat
  let write_latencies st = st.write_lat
  let monotonic_violations st = st.mono_violations
  let reads_done st = st.reads
  let staleness_sum st = st.staleness_sum
  let degraded_entries st = st.deg_entries
  let degraded_exits st = st.deg_exits
  let reads_rejected st = st.reads_rejected
  let degraded = Some (fun st -> st.degraded)

  (* Shed reads before writes: replication traffic (writes and their
     acks/apply fan-out, anti-entropy) outranks the read path, so a
     mailbox overflow sacrifices read service, not durability. *)
  let priority =
    Some
      (function
      | Write _ | Write_done _ | Apply _ -> 2
      | Sync_req _ -> 1
      | Read_req _ | Read_reply _ | Read_reject _ -> 0)

  let primary_id = Proto.Node_id.of_int 0
  let is_primary st = Proto.Node_id.equal st.self primary_id

  let replicas =
    List.init P.population Proto.Node_id.of_int

  let majority = (P.population / 2) + 1

  (* Anti-entropy: every node periodically tells the primary how far it
     has applied; the primary re-sends what the channel ate. Without
     this a single lost [Apply] wedges a replica forever — under benign
     loss that window is short, under chaos storms it is the norm. *)
  let sync_period = 1.0
  let sync_batch = 32

  let init (ctx : Proto.Ctx.t) =
    let timers =
      (if P.write_period > 0. then
         [ Proto.Action.set_timer ~id:"write" ~after:(P.write_period *. (0.5 +. Dsim.Rng.uniform ctx.rng)) ]
       else [])
      @
      (if P.read_period > 0. then
         [ Proto.Action.set_timer ~id:"read" ~after:(P.read_period *. (0.5 +. Dsim.Rng.uniform ctx.rng)) ]
       else [])
      @ [
          Proto.Action.set_timer ~id:"sync"
            ~after:(sync_period +. (0.13 *. float_of_int (Proto.Node_id.to_int ctx.self)));
        ]
    in
    ( {
        self = ctx.self;
        store = Tracked.empty store_entry;
        applied_seq = 0;
        buffer = Int_map.empty;
        head_seq = 0;
        write_origins = [];
        read_floor = 0;
        write_floor = 0;
        staleness_sum = 0;
        known_seq = [];
        next_rid = 0;
        last_rid = 0;
        history = Tracked.empty history_entry;
        read_lat = [];
        write_lat = [];
        mono_violations = 0;
        reads = 0;
        degraded = false;
        deg_entries = 0;
        deg_exits = 0;
        reads_rejected = 0;
      },
      timers )

  (* Apply everything contiguous from the buffer. *)
  let rec drain st =
    match Int_map.find_opt (st.applied_seq + 1) st.buffer with
    | None -> st
    | Some (key, value) ->
        drain
          {
            st with
            applied_seq = st.applied_seq + 1;
            buffer = Int_map.remove (st.applied_seq + 1) st.buffer;
            store = Tracked.add key value st.store;
          }

  (* Read-only degradation on the failure detector's word. The primary
     goes read-only when it cannot see a majority of the replica group
     (its sequenced writes could no longer reach a quorum); a replica
     goes read-only when it suspects the primary (its submitted writes
     would vanish into silence). Hysteresis — enter at suspicion 1.0,
     leave below 0.5 — keeps a link hovering at the threshold from
     flapping the mode every sync tick. Pure detector reads: no RNG, so
     benign runs are bit-identical with the pre-degradation engine. *)
  let update_degraded (ctx : Proto.Ctx.t) st =
    let impaired ~cutoff =
      if is_primary st then
        let reachable =
          1
          + List.length
              (List.filter
                 (fun r ->
                   (not (Proto.Node_id.equal r st.self))
                   && Proto.Ctx.suspicion ctx r < cutoff)
                 replicas)
        in
        reachable < majority
      else Proto.Ctx.suspicion ctx primary_id >= cutoff
    in
    if st.degraded then
      if impaired ~cutoff:0.5 then st
      else { st with degraded = false; deg_exits = st.deg_exits + 1 }
    else if impaired ~cutoff:1.0 then
      { st with degraded = true; deg_entries = st.deg_entries + 1 }
    else st

  let h_write =
    Proto.Handler.v ~name:"write"
      ~guard:(fun st ~src:_ m ->
        (match m with Write _ -> true | _ -> false) && is_primary st && not st.degraded)
      (fun ctx st ~src:_ m ->
        match m with
        | Write { key; origin } ->
            let seq = st.head_seq + 1 in
            let born = Dsim.Vtime.to_seconds ctx.now in
            let st =
              {
                st with
                head_seq = seq;
                write_origins = (seq, (origin, born)) :: st.write_origins;
                history = Tracked.add seq (key, seq) st.history;
              }
            in
            (* The primary is its own first replica: it applies
               synchronously rather than round-tripping an [Apply]
               through the (possibly lossy, reordering) network to
               itself — the sequencer must never lag its own log, or a
               session whose floor came from a faster replica would
               read the primary and watch the log run backwards. *)
            let st = drain { st with buffer = Int_map.add seq (key, seq) st.buffer } in
            let done_, waiting =
              List.partition (fun (s, _) -> s <= st.applied_seq) st.write_origins
            in
            let acks =
              List.map
                (fun (s, (origin, born)) ->
                  Proto.Action.send ~dst:origin (Write_done { seq = s; born }))
                done_
            in
            let applies =
              List.filter_map
                (fun r ->
                  if Proto.Node_id.equal r st.self then None
                  else Some (Proto.Action.send ~dst:r (Apply { seq; key; value = seq })))
                replicas
            in
            ({ st with write_origins = waiting }, applies @ acks)
        | _ -> (st, []))

  let h_apply =
    Proto.Handler.v ~name:"apply"
      ~guard:(fun _ ~src:_ m -> match m with Apply _ -> true | _ -> false)
      (fun _ctx st ~src:_ m ->
        match m with
        | Apply { seq; key; value } ->
            if seq <= st.applied_seq then (st, [])
            else begin
              let st = drain { st with buffer = Int_map.add seq (key, value) st.buffer } in
              (* The primary acknowledges a write once it has applied
                 it itself. *)
              if is_primary st then begin
                let done_, waiting =
                  List.partition (fun (s, _) -> s <= st.applied_seq) st.write_origins
                in
                let acks =
                  List.map
                    (fun (s, (origin, born)) ->
                      Proto.Action.send ~dst:origin (Write_done { seq = s; born }))
                    done_
                in
                ({ st with write_origins = waiting }, acks)
              end
              else (st, [])
            end
        | _ -> (st, []))

  let h_write_done =
    Proto.Handler.v ~name:"write_done"
      ~guard:(fun _ ~src:_ m -> match m with Write_done _ -> true | _ -> false)
      (fun ctx st ~src:_ m ->
        match m with
        | Write_done { seq; born } ->
            let lat = Dsim.Vtime.to_seconds ctx.now -. born in
            ( {
                st with
                write_lat = lat :: st.write_lat;
                write_floor = max st.write_floor seq;
              },
              [] )
        | _ -> (st, []))

  let h_read_req =
    Proto.Handler.v ~name:"read_req"
      ~guard:(fun _ ~src:_ m -> match m with Read_req _ -> true | _ -> false)
      (fun ctx st ~src:_ m ->
        match m with
        | Read_req { rid; key; origin; born } ->
            (* Under queue pressure the read path is shed first (reads
               are retryable elsewhere, replication is not): answer with
               a cheap retryable rejection instead of a full reply.
               [pressure] is 0 unless the engine runs bounded mailboxes,
               so the branch is dead on default configurations. *)
            if Proto.Ctx.pressure ctx >= 0.5 then
              (st, [ Proto.Action.send ~dst:origin (Read_reject { rid; retryable = true }) ])
            else
              let value = Option.value ~default:0 (Int_map.find_opt key st.store.map) in
              ( st,
                [
                  Proto.Action.send ~dst:origin
                    (Read_reply { rid; key; value; applied_seq = st.applied_seq; born });
                ] )
        | _ -> (st, []))

  let h_read_reject =
    Proto.Handler.v ~name:"read_reject"
      ~guard:(fun _ ~src:_ m -> match m with Read_reject _ -> true | _ -> false)
      (fun _ctx st ~src:_ m ->
        match m with
        | Read_reject { rid; _ } when rid > st.last_rid && rid <= st.next_rid ->
            (* Count the shed and retire the rid; the periodic read
               timer is the retry loop, so no immediate re-issue. A rid
               this session never issued ([> next_rid]) is a byzantine
               forgery and is ignored. *)
            ({ st with last_rid = rid; reads_rejected = st.reads_rejected + 1 }, [])
        | _ -> (st, []))

  let h_read_reply =
    Proto.Handler.v ~name:"read_reply"
      ~guard:(fun _ ~src:_ m -> match m with Read_reply _ -> true | _ -> false)
      (fun ctx st ~src m ->
        match m with
        | Read_reply { rid; applied_seq; born; _ }
          when rid > st.last_rid
               (* Byzantine hardening, vacuous on honest traffic: this
                  session issued read ids up to [next_rid], and a
                  replica's applied position never regresses — a reply
                  for a never-issued rid, or one claiming the replica
                  moved backwards from what this session already saw of
                  it, is a forgery and is ignored. *)
               && rid <= st.next_rid
               && applied_seq >= Option.value ~default:0 (List.assoc_opt src st.known_seq) ->
            let st = { st with last_rid = rid } in
            let lat = Dsim.Vtime.to_seconds ctx.now -. born in
            (* Monotonic reads: within one session the log must never
               appear to run backwards across successive reads. *)
            let violation = applied_seq < st.read_floor in
            (* Staleness: how far behind the freshest state this
               session has evidence of (its own acked writes included)
               the reply was. *)
            let staleness = max 0 (max st.read_floor st.write_floor - applied_seq) in
            ( {
                st with
                reads = st.reads + 1;
                read_lat = lat :: st.read_lat;
                mono_violations = (st.mono_violations + if violation then 1 else 0);
                staleness_sum = st.staleness_sum + staleness;
                read_floor = max st.read_floor applied_seq;
                known_seq =
                  (src, applied_seq)
                  :: List.filter (fun (p, _) -> not (Proto.Node_id.equal p src)) st.known_seq;
              },
              [] )
        | _ -> (st, []))

  let h_sync =
    Proto.Handler.v ~name:"sync"
      ~guard:(fun st ~src:_ m -> (match m with Sync_req _ -> true | _ -> false) && is_primary st)
      (fun _ctx st ~src m ->
        match m with
        | Sync_req { have } ->
            let upto = min st.head_seq (have + sync_batch) in
            let resend = ref [] in
            for seq = upto downto have + 1 do
              match Int_map.find_opt seq st.history.map with
              | Some (key, value) ->
                  resend := Proto.Action.send ~dst:src (Apply { seq; key; value }) :: !resend
              | None -> ()
            done;
            (st, !resend)
        | _ -> (st, []))

  let receive =
    [ h_write; h_apply; h_write_done; h_read_req; h_read_reply; h_sync; h_read_reject ]

  (* The exposed choice: which *other* replica serves this read? (The
     local store is a cache, not a quorum member; sessions consult the
     replica group.) *)
  let choose_replica (ctx : Proto.Ctx.t) st =
    let candidates =
      List.filter (fun r -> not (Proto.Node_id.equal r st.self)) replicas
    in
    let alternative r =
      let rid = Proto.Node_id.to_int r in
      Core.Choice.alt
        ~features:
          [|
            float_of_int rid;
            (if rid = 0 then 1. else 0.);
            Proto.Ctx.predicted_ms ctx r;
            float_of_int (Option.value ~default:0 (List.assoc_opt r st.known_seq));
            float_of_int (max st.read_floor st.write_floor);
          |]
        r
    in
    ctx.choose
      (Core.Choice.make ~label:read_label ~schema:read_schema (List.map alternative candidates))

  let on_timer (ctx : Proto.Ctx.t) st id =
    match id with
    | "write" ->
        let rearm = Proto.Action.set_timer ~id:"write" ~after:P.write_period in
        if st.degraded then (st, [ rearm ])  (* read-only: shed the write *)
        else
          let key = Dsim.Rng.int ctx.rng P.keys in
          (st, [ Proto.Action.send ~dst:primary_id (Write { key; origin = st.self }); rearm ])
    | "read" ->
        let rearm = Proto.Action.set_timer ~id:"read" ~after:P.read_period in
        (* Self-throttle: when our own mailbox is nearly full, issuing
           more reads only feeds the overload. Shed at the source and
           try again next period. Dead branch under unbounded queues. *)
        if Proto.Ctx.pressure ctx >= 0.75 then (st, [ rearm ])
        else
          let key = Dsim.Rng.int ctx.rng P.keys in
          let born = Dsim.Vtime.to_seconds ctx.now in
          let target = choose_replica ctx st in
          let rid = st.next_rid + 1 in
          let read_actions =
            [ Proto.Action.send ~dst:target (Read_req { rid; key; origin = st.self; born }) ]
          in
          ({ st with next_rid = rid }, read_actions @ [ rearm ])
    | "sync" ->
        let st = update_degraded ctx st in
        let rearm = Proto.Action.set_timer ~id:"sync" ~after:sync_period in
        if is_primary st then (st, [ rearm ])
        else
          ( st,
            [ Proto.Action.send ~dst:primary_id (Sync_req { have = st.applied_seq }); rearm ] )
    | _ -> (st, [])

  let properties : (state, msg) Proto.View.t Core.Property.t list =
    [
      Core.Property.safety ~name:"monotonic-reads" (fun view ->
          Proto.View.fold (fun ok _ st -> ok && st.mono_violations = 0) true view);
      Core.Property.liveness ~name:"replicas-converge" (fun view ->
          let head =
            Proto.View.fold (fun h _ st -> max h st.head_seq) 0 view
          in
          Proto.View.fold (fun ok _ st -> ok && st.applied_seq = head) true view);
    ]

  (* Reads completed fast, no staleness regressions: the §3.2 "weaker
     consistency expressed as performance" objective. *)
  let objectives : (state, msg) Proto.View.t Core.Objective.t list =
    [
      Core.Objective.v ~name:"read-throughput" (fun view ->
          Proto.View.fold (fun acc _ st -> acc +. float_of_int st.reads) 0. view);
      Core.Objective.v ~name:"read-latency" ~weight:2.0 (fun view ->
          Proto.View.fold
            (fun acc _ st -> acc -. List.fold_left ( +. ) 0. st.read_lat)
            0. view);
      Core.Objective.v ~name:"session-integrity" ~weight:50.0 (fun view ->
          Proto.View.fold
            (fun acc _ st -> acc -. float_of_int st.mono_violations)
            0. view);
      Core.Objective.v ~name:"freshness" ~weight:0.5 (fun view ->
          Proto.View.fold
            (fun acc _ st -> acc -. float_of_int st.staleness_sum)
            0. view);
    ]

  let generic_msgs st : (Proto.Node_id.t * msg) list =
    if st.applied_seq = 0 then []
    else
      [
        ( Proto.Node_id.of_int 92,
          Read_reply { rid = 0; key = 0; value = 0; applied_seq = 0; born = 0. } );
      ]
end

module Default = Make (Default_params)

(* Column [c] of alternative [i], or [default] where the schema lacks
   it: [Core.Choice.value], here so that it inlines and boxes no float. *)
let[@inline] read (site : Core.Choice.site) c i default =
  if c < 0 then default else site.site_features.((i * Core.Choice.width site.site_schema) + c)

let is_primary = Core.Choice.column "is_primary"
let rtt_ms = Core.Choice.column "rtt_ms"

(** Always read from the primary: linearizable and slow. *)
let primary_resolver =
  Core.Resolver.make ~name:"primary" (fun _rng site ->
      let primary = is_primary site in
      let best = ref 0 in
      for i = 0 to site.site_arity - 1 do
        if read site primary i 0. > 0.5 then best := i
      done;
      !best)

(** Always read locally: instant and as stale as it gets. *)
let nearest_resolver =
  Core.Resolver.make ~name:"nearest" (fun _rng site ->
      let rtt = rtt_ms site in
      let best = ref 0 in
      for i = 1 to site.site_arity - 1 do
        if read site rtt i infinity < read site rtt !best infinity then best := i
      done;
      !best)

(** The session-aware compromise: cheapest replica not known to be
    behind this session's floor; the primary as the safe fallback. *)
let session_resolver =
  let floor_c = Core.Choice.column "floor" and known_c = Core.Choice.column "known_seq" in
  Core.Resolver.make ~name:"session" (fun _rng site ->
      let floor_c = floor_c site and known_c = known_c site in
      let primary = is_primary site and rtt = rtt_ms site in
      let floor = read site floor_c 0 0. in
      let best = ref (-1) in
      for i = 0 to site.site_arity - 1 do
        let fresh = read site known_c i 0. >= floor || read site primary i 0. > 0.5 in
        if fresh && (!best < 0 || not (read site rtt !best 0. <= read site rtt i 0.)) then best := i
      done;
      if !best >= 0 then !best
      else begin
        let p = ref 0 in
        for i = 0 to site.site_arity - 1 do
          if read site primary i 0. > 0.5 then p := i
        done;
        !p
      end)
