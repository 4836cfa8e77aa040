type estimate = {
  value : float;
  confidence : float;
  samples : int;
  last_update : Dsim.Vtime.t option;
}

(* Every field is a float, so the record is stored flat and an
   observation writes its new EWMA without boxing it: [n] counts samples
   (exactly, up to 2^53) and [at] is the last update in virtual
   seconds. A cell with [n = 0] is blank: every reader treats it
   exactly like a pair that was never observed. *)
type cell = { mutable ewma : float; mutable n : float; mutable at : float }

type link = { lat : cell; bw : cell; loss : cell }

(* [links] holds the pair [(src, dst)] at row [src], column [dst].
   An unwritten slot holds [absent], whose cells stay blank because no
   write path ever reaches it. *)
type t = { alpha : float; half_life : float; links : link Pair_rows.t }

let blank_cell () = { ewma = 0.; n = 0.; at = 0. }
let blank_link () = { lat = blank_cell (); bw = blank_cell (); loss = blank_cell () }
let absent = blank_link ()

let create ?(alpha = 0.3) ?(half_life = 30.) () =
  if alpha <= 0. || alpha > 1. then invalid_arg "Netmodel.create: alpha out of (0,1]";
  if half_life <= 0. then invalid_arg "Netmodel.create: half_life must be positive";
  { alpha; half_life; links = Pair_rows.create ~absent }

let copy_cell (c : cell) = { c with ewma = c.ewma }

let copy t =
  {
    t with
    links =
      Pair_rows.copy t.links (fun l ->
          { lat = copy_cell l.lat; bw = copy_cell l.bw; loss = copy_cell l.loss });
  }

let link t ~src ~dst =
  let l = Pair_rows.find t.links src dst in
  if l != absent then l
  else
    let l = blank_link () in
    Pair_rows.set t.links src dst l;
    l

(* Out of range, negative included, reads as never observed. *)
let find t ~src ~dst = Pair_rows.find t.links src dst

let[@inline] observe_cell t (c : cell) now x =
  if c.n = 0. then c.ewma <- x else c.ewma <- ((1. -. t.alpha) *. c.ewma) +. (t.alpha *. x);
  c.n <- c.n +. 1.;
  c.at <- Dsim.Vtime.to_seconds now

let indicator ~delivered = if delivered then 0. else 1.
let observe_link_latency t l now x = observe_cell t l.lat now x
let observe_link_bandwidth t l now x = observe_cell t l.bw now x
let observe_link_loss t l now ~delivered = observe_cell t l.loss now (indicator ~delivered)
let observe_latency t ~src ~dst now x = observe_link_latency t (link t ~src ~dst) now x
let observe_bandwidth t ~src ~dst now x = observe_link_bandwidth t (link t ~src ~dst) now x

let observe_loss t ~src ~dst now ~delivered =
  observe_link_loss t (link t ~src ~dst) now ~delivered

let no_estimate = { value = 0.; confidence = 0.; samples = 0; last_update = None }

let confidence t (c : cell) ~now =
  let age = Float.max 0. (Dsim.Vtime.to_seconds now -. c.at) in
  exp (-.age *. log 2. /. t.half_life)

let read t (c : cell) ~now =
  if c.n = 0. then no_estimate
  else
    {
      value = c.ewma;
      confidence = confidence t c ~now;
      samples = int_of_float c.n;
      last_update = Some (Dsim.Vtime.of_seconds c.at);
    }

let latency t ~src ~dst ~now = read t (find t ~src ~dst).lat ~now
let bandwidth t ~src ~dst ~now = read t (find t ~src ~dst).bw ~now
let loss t ~src ~dst ~now = read t (find t ~src ~dst).loss ~now

let predict_path t ~src ~dst ~now:_ =
  let l = find t ~src ~dst in
  if l.lat.n = 0. then None
  else
    let bw = if l.bw.n = 0. then 1_048_576. else Float.max 1. l.bw.ewma in
    let p = if l.loss.n = 0. then 0. else Float.min 1. (Float.max 0. l.loss.ewma) in
    (* Built directly rather than through [Linkprop.v], which would box
       each unboxed cell value to pass it: the clamps above already
       keep the fields in [Linkprop.v]'s ranges. *)
    Some { Linkprop.latency = Float.max 0. l.lat.ewma; bandwidth = bw; loss = p }

let predict_transfer_time t ~src ~dst ~now ~bytes =
  match predict_path t ~src ~dst ~now with
  | None -> None
  | Some p ->
      let once = Linkprop.transfer_time p ~bytes in
      (* Expected attempts under independent drops: 1 / (1 - loss). *)
      let retries = if p.Linkprop.loss >= 0.999 then 1000. else 1. /. (1. -. p.Linkprop.loss) in
      Some (once *. retries)

let observed l = l.lat.n > 0. || l.bw.n > 0. || l.loss.n > 0.

(* [Pair_rows.iter] walks sources, then destinations, ascending. *)
let known_pairs t =
  let acc = ref [] in
  Pair_rows.iter t.links (fun src dst l -> if observed l then acc := (src, dst) :: !acc);
  List.rev !acc

let forget_before t cutoff =
  (* Reset in place rather than unlink: a blank cell reads as never
     observed, and resetting keeps outstanding {!link} handles wired to
     the cells the model holds. *)
  let cutoff = Dsim.Vtime.to_seconds cutoff in
  let prune c =
    if c.n > 0. && Float.compare c.at cutoff < 0 then begin
      c.ewma <- 0.;
      c.n <- 0.;
      c.at <- 0.
    end
  in
  Pair_rows.iter t.links (fun _ _ l ->
      prune l.lat;
      prune l.bw;
      prune l.loss)

let merge_from dst src ~now =
  (* Imports overwrite [dst]'s cells in place, so its link handles stay
     valid. *)
  let import (mine : cell) (c : cell) =
    if c.n > 0. && (mine.n = 0. || confidence dst c ~now > confidence dst mine ~now) then begin
      mine.ewma <- c.ewma;
      mine.n <- c.n;
      mine.at <- c.at
    end
  in
  Pair_rows.iter src.links (fun s d l ->
      if observed l then begin
        let mine = link dst ~src:s ~dst:d in
        import mine.lat l.lat;
        import mine.bw l.bw;
        import mine.loss l.loss
      end)
