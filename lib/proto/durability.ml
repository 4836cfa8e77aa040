(** The persistence contract between an application and the engine.

    An app that opts in (via {!App_intf.APP.durable}) describes what
    survives a crash and how: [codec] is the snapshot encoding of its
    durable projection (non-durable fields — timers, sessions,
    in-flight bookkeeping — may encode as anything; [restore] decides
    what is believed), [log] turns one state transition into at most
    one write-ahead record, [replay] applies a record during recovery,
    and [restore] merges the recovered durable state into the state a
    fresh boot produced.

    The engine enforces the write-ahead discipline: a transition whose
    [log] returns a record has its outbound messages withheld until
    the simulated disk reports the record durable, so no node ever
    tells a peer something its disk could still forget. Recovery is
    total: a torn or corrupt WAL tail is dropped (and counted by the
    engine), a snapshot that no longer decodes falls back to amnesia —
    recovery never raises into the engine.

    Recovery contract, in order:
    + the engine runs [App.init] normally, producing [boot];
    + an empty store seeds an initial snapshot of [boot] and recovery
      ends there;
    + otherwise the snapshot is decoded with [codec] and every
      complete WAL record is folded through [replay] (stopping at the
      first failure), yielding [durable];
    + the node resumes with [restore ~boot ~durable], which is also
      compacted into a fresh snapshot.

    The ['msg] parameter ties the hook to its app signature; it keeps
    room for durability of in-flight messages without another
    signature change. *)

type ('state, 'msg) t = {
  codec : 'state Wire.Codec.t;
      (** snapshot codec for the durable projection of the state *)
  log : prev:'state -> next:'state -> string option;
      (** the WAL record this transition must make durable, if any *)
  replay : 'state -> string -> ('state, string) result;
      (** fold one WAL record into a recovering state *)
  restore : boot:'state -> durable:'state -> 'state;
      (** merge recovered durable fields into a freshly booted state *)
  snapshot_every : int;
      (** compact the WAL into a snapshot after this many records *)
}

(** [v codec] builds the naive strategy: every changed state appends a
    full snapshot record, recovery believes the durable state
    wholesale. [equal] (default structural equality) suppresses
    records for transitions that left the state unchanged — supply a
    real equality when the state contains sets or maps whose internal
    shape is insertion-order dependent. Apps with cheaper deltas
    supply their own [log]/[replay]; apps whose durable part is a
    projection supply [restore]. *)
let v ?(snapshot_every = 32) ?equal ?log ?replay ?restore codec =
  if snapshot_every <= 0 then invalid_arg "Durability.v: snapshot_every must be positive";
  let equal = match equal with Some e -> e | None -> Stdlib.( = ) in
  let log =
    match log with
    | Some l -> l
    | None ->
        fun ~prev ~next ->
          if prev == next || equal prev next then None else Some (Wire.Codec.encode codec next)
  in
  let replay =
    match replay with Some r -> r | None -> fun _st record -> Wire.Codec.decode codec record
  in
  let restore =
    match restore with Some r -> r | None -> fun ~boot:_ ~durable -> durable
  in
  { codec; log; replay; restore; snapshot_every }

(** A persistent map that remembers its latest writes, so an app's
    [log] can find what a transition changed in O(changed) instead of
    diffing whole maps, and its snapshot codec can report its size in
    O(1) instead of encoding the map.

    Each {!add} that changes the map records the key it wrote together
    with the map it was applied to, in a window of the last
    {!window_size} writes. [changes ~prev ~next] walks [next]'s window,
    newest first, until it reaches a write applied to [prev.map]
    itself ([==]): the keys written on the way are exactly the ones
    that may differ. Physical identity is the proof of lineage, so the
    walk is sound whichever states it is handed. When the window does
    not reach [prev] — a state decoded from a snapshot, a restored or
    reborn one, or a transition that wrote more than the window holds —
    [changes] falls back to the full fold.

    The window is a small constant on purpose: every entry keeps an old
    version of the map alive (mostly shared with the current one).

    Every tracked map is built with an entry codec and keeps two
    running totals, updated by {!add}: its binding count and the summed
    encoded size of its bindings under that codec. {!codec} reads them
    to size a snapshot without encoding it. *)
module Tracked (K : Map.OrderedType) : sig
  type 'a map = 'a Map.Make(K).t

  type 'a t = private {
    map : 'a map;  (** the current bindings *)
    window : (K.t * 'a map) list;
        (** latest writes, newest first: the key and the map it was
            applied to; at most {!window_size} *)
    entry : (K.t * 'a) Wire.Codec.t;  (** the codec [bytes] is measured with *)
    count : int;  (** bindings in [map] *)
    bytes : int;  (** summed [Wire.Codec.size entry] over the bindings *)
  }

  val window_size : int

  val empty : (K.t * 'a) Wire.Codec.t -> 'a t
  (** [empty entry] has no bindings; its totals are measured with
      [entry]. *)

  val of_map : (K.t * 'a) Wire.Codec.t -> 'a map -> 'a t
  (** A map with no recorded writes: every [changes] from an unrelated
      state takes the full fold. Its totals are folded once, here. *)

  val add : K.t -> 'a -> 'a t -> 'a t
  (** [add k v t] binds [k] to [v]; a write that leaves the map
      physically unchanged is not recorded. *)

  val written : prev:'a t -> next:'a t -> K.t list option
  (** The distinct keys written between [prev] and [next], in
      descending order, if [next]'s window reaches [prev.map]; [Some []]
      when both hold the same map. *)

  val changes : prev:'a t -> next:'a t -> (K.t * 'a) list
  (** The bindings of [next] that [prev] lacks or binds to a different
      value (structural [=]), in descending key order. *)

  val codec : (K.t * 'a) Wire.Codec.t -> 'a t Wire.Codec.t
  (** [codec entry] encodes a tracked map byte-for-byte like
      [Wire.Codec.list entry] over its bindings in key order, without
      building the list. Its size is O(1) for a map built with [entry]
      itself ([==]) and a fold over the bindings otherwise. Decoding
      rebuilds the map (a later duplicate key wins) with totals
      measured by [entry]. *)
end = struct
  module M = Map.Make (K)

  type 'a map = 'a M.t

  type 'a t = {
    map : 'a map;
    window : (K.t * 'a map) list;
    entry : (K.t * 'a) Wire.Codec.t;
    count : int;
    bytes : int;
  }

  let window_size = 4
  let empty entry = { map = M.empty; window = []; entry; count = 0; bytes = 0 }

  let of_map entry map =
    let count, bytes =
      M.fold (fun k v (n, b) -> (n + 1, b + Wire.Codec.size entry (k, v))) map (0, 0)
    in
    { map; window = []; entry; count; bytes }

  let add k v t =
    let map = M.add k v t.map in
    if map == t.map then t
    else
      let size = Wire.Codec.size t.entry (k, v) in
      let count, bytes =
        match M.find_opt k t.map with
        | None -> (t.count + 1, t.bytes + size)
        | Some old -> (t.count, t.bytes + size - Wire.Codec.size t.entry (k, old))
      in
      {
        t with
        map;
        window = (k, t.map) :: List.filteri (fun i _ -> i < window_size - 1) t.window;
        count;
        bytes;
      }

  let written ~prev ~next =
    if prev.map == next.map then Some []
    else
      let rec walk keys = function
        | [] -> None
        | (k, before) :: older ->
            if before == prev.map then Some (List.sort_uniq (fun a b -> K.compare b a) (k :: keys))
            else walk (k :: keys) older
      in
      walk [] next.window

  let changed prev k v =
    match M.find_opt k prev.map with Some v' -> v' <> v | None -> true

  let changes ~prev ~next =
    match written ~prev ~next with
    | Some keys ->
        List.filter_map
          (fun k ->
            let v = M.find k next.map in
            if changed prev k v then Some (k, v) else None)
          keys
    | None -> M.fold (fun k v acc -> if changed prev k v then (k, v) :: acc else acc) next.map []

  let codec entry =
    Wire.Codec.collection
      ~length:(fun t -> t.count)
      ~iter:(fun f t -> M.iter (fun k v -> f (k, v)) t.map)
      ~of_list:(fun bindings ->
        of_map entry (List.fold_left (fun m (k, v) -> M.add k v m) M.empty bindings))
      ~elements_size:(fun t -> if t.entry == entry then Some t.bytes else None)
      entry
end
