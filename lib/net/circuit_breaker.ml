(* Per-directed-pair circuit breakers: Closed / Open / Half_open over
   the caller's (virtual) clock. Pure arithmetic — no RNG, no events —
   so state transitions are deterministic and copyable. *)

type state = Closed | Open | Half_open

type pair = {
  mutable failures : int;    (* consecutive failures while closed *)
  mutable opened_at : Dsim.Vtime.t; (* trip time; meaningful when is_open *)
  mutable is_open : bool;
  mutable probes : int;      (* probes handed out this half-open round *)
}

type t = { pairs : (int * int, pair) Hashtbl.t }

let failure_threshold = 3
let cooldown = 5.0
let half_open_probes = 1

let create () = { pairs = Hashtbl.create 16 }

let copy t =
  let pairs = Hashtbl.create (Hashtbl.length t.pairs) in
  Hashtbl.iter (fun k p -> Hashtbl.add pairs k { p with failures = p.failures }) t.pairs;
  { pairs }

let get t ~src ~dst =
  match Hashtbl.find_opt t.pairs (src, dst) with
  | Some p -> p
  | None ->
      let p = { failures = 0; opened_at = Dsim.Vtime.zero; is_open = false; probes = 0 } in
      Hashtbl.add t.pairs (src, dst) p;
      p

(* Elapsed time since the trip is clamped at zero: a cooldown judged
   against an instant that precedes the trip (a backwards-stepped local
   clock, a reordered observation) must keep the pair open, not wrap
   into a huge negative that half-opens it on float quirks. *)
let half_open p ~now =
  p.is_open && Float.max 0. (Dsim.Vtime.diff now p.opened_at) >= cooldown

let state t ~src ~dst ~now =
  match Hashtbl.find_opt t.pairs (src, dst) with
  | None -> Closed
  | Some p ->
      if not p.is_open then Closed
      else if half_open p ~now then Half_open
      else Open

let do_open p ~now =
  p.is_open <- true;
  p.opened_at <- now;
  p.probes <- 0;
  p.failures <- 0

let record_failure t ~src ~dst ~now =
  let p = get t ~src ~dst in
  if p.is_open then begin
    (* A failure during half-open re-opens and restarts the cooldown;
       while still cooling down the trip time is left alone so the
       probe schedule stays anchored to the original trip. *)
    if half_open p ~now then do_open p ~now
  end
  else begin
    p.failures <- p.failures + 1;
    if p.failures >= failure_threshold then do_open p ~now
  end

let record_success t ~src ~dst =
  match Hashtbl.find_opt t.pairs (src, dst) with
  | None -> ()
  | Some p ->
      p.failures <- 0;
      p.is_open <- false;
      p.probes <- 0

let trip t ~src ~dst ~now =
  let p = get t ~src ~dst in
  if not p.is_open then do_open p ~now

let allow t ~src ~dst ~now =
  match state t ~src ~dst ~now with
  | Closed -> true
  | Open -> false
  | Half_open ->
      let p = get t ~src ~dst in
      p.probes < half_open_probes

let acquire t ~src ~dst ~now =
  match state t ~src ~dst ~now with
  | Closed -> true
  | Open -> false
  | Half_open ->
      let p = get t ~src ~dst in
      if p.probes < half_open_probes then begin
        p.probes <- p.probes + 1;
        true
      end
      else false

let open_pairs t ~now:_ =
  Hashtbl.fold (fun _ p acc -> if p.is_open then acc + 1 else acc) t.pairs 0
