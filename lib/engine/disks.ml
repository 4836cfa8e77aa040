type t = { mutable stores : Store.t Proto.Node_id.Map.t }

let create () = { stores = Proto.Node_id.Map.empty }
let copy d = { stores = Proto.Node_id.Map.map Store.copy d.stores }
let find d id = Proto.Node_id.Map.find_opt id d.stores
let bytes_written d = Proto.Node_id.Map.fold (fun _ s acc -> acc + Store.bytes_written s) d.stores 0

let store_of d node =
  match find d node with
  | Some s -> s
  | None ->
      let s = Store.create () in
      d.stores <- Proto.Node_id.Map.add node s d.stores;
      s

(* Compaction charges the snapshot's exact size now and encodes it
   only if a recovery reads it: states are immutable, so the deferred
   bytes are the ones an eager encode would have written, and every
   disk delay (hence the event stream) is unchanged. *)
let install_snapshot store ~now (d : _ Proto.Durability.t) st =
  Store.install_snapshot store ~now ~bytes:(Wire.Codec.size d.codec st) (fun () ->
      Wire.Codec.encode d.codec st)

type 'state recovery = { state : 'state; delay : float; torn : bool; restored : bool }

let recover disks id ~now (d : _ Proto.Durability.t) boot =
  let store = store_of disks id in
  let now = Dsim.Vtime.to_seconds now in
  let fresh ?(torn = false) ?(restored = false) state =
    { state; delay = install_snapshot store ~now d state; torn; restored }
  in
  if Store.is_empty store then fresh boot
  else begin
    let { Store.snapshot; entries; torn } = Store.read store in
    let durable =
      match snapshot with
      | None -> None
      | Some s -> (
          match Wire.Codec.decode d.codec s with
          | Ok st ->
              let rec fold st = function
                | [] -> st
                | r :: rest -> (
                    match d.replay st r with
                    | Ok st' -> fold st' rest
                    | Error _ | (exception _) -> st)
              in
              Some (fold st entries)
          | Error _ | (exception _) -> None)
    in
    match durable with
    | None ->
        (* Snapshot unreadable: the disk is worthless, fall back to
           amnesia rather than poison the application. *)
        Store.wipe store;
        fresh ~torn boot
    | Some durable ->
        fresh ~torn ~restored:true (d.restore ~boot ~durable)
  end
