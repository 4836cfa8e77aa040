(* [None] until the first clock fault: every node reads the global
   clock and the knobs-off path is one option check. *)
type t = { mutable tbl : (int, Dsim.Clock.t) Hashtbl.t option }

let create () = { tbl = None }

let copy c =
  {
    tbl =
      Option.map
        (fun tbl ->
          let h = Hashtbl.create (Int.max 8 (Hashtbl.length tbl)) in
          Hashtbl.iter (fun k ck -> Hashtbl.add h k (Dsim.Clock.copy ck)) tbl;
          h)
        c.tbl;
  }

let find c node =
  match c.tbl with None -> None | Some tbl -> Hashtbl.find_opt tbl (Proto.Node_id.to_int node)

let read c node ~global =
  match find c node with None -> global | Some ck -> Dsim.Clock.read ck ~global

let skew c node ~global = match find c node with None -> 0. | Some ck -> Dsim.Clock.skew ck ~global

let ensure c node =
  let tbl =
    match c.tbl with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        c.tbl <- Some tbl;
        tbl
  in
  let key = Proto.Node_id.to_int node in
  match Hashtbl.find_opt tbl key with
  | Some ck -> ck
  | None ->
      let ck = Dsim.Clock.create () in
      Hashtbl.add tbl key ck;
      ck

let set_rate c node ~global ~rate =
  let ck = ensure c node in
  Dsim.Clock.set_rate ck ~global ~rate;
  ck

let step c node ~global ~offset =
  let ck = ensure c node in
  Dsim.Clock.step ck ~global ~offset;
  ck

(* The entry is removed — an identity clock and no clock are
   indistinguishable, and keeping the table minimal keeps
   [fingerprints] clean. *)
let heal c node ~global =
  match find c node with
  | None -> None
  | Some ck ->
      Dsim.Clock.heal ck ~global;
      Option.iter (fun tbl -> Hashtbl.remove tbl (Proto.Node_id.to_int node)) c.tbl;
      Some ck

let fingerprints c =
  match c.tbl with
  | None -> []
  | Some tbl ->
      Hashtbl.fold
        (fun k ck acc ->
          let fp = Dsim.Clock.fingerprint ck in
          if fp = 0 then acc else (Proto.Node_id.of_int k, fp) :: acc)
        tbl []
      |> List.sort (fun (a, _) (b, _) -> Proto.Node_id.compare a b)
