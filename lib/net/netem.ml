type verdict =
  | Deliver of float
  | Drop of string
  | Duplicate of float list
  | Corrupt of { delay : float; flip : float }
  | Mutate of float

type faults = {
  duplicate_rate : float;
  duplicate_copies : int;
  corrupt_rate : float;
  corrupt_flip : float;
  reorder_rate : float;
  reorder_window : float;
  mutate_rate : float;
}

let no_faults =
  {
    duplicate_rate = 0.;
    duplicate_copies = 1;
    corrupt_rate = 0.;
    corrupt_flip = 0.02;
    reorder_rate = 0.;
    reorder_window = 0.;
    mutate_rate = 0.;
  }

let validate_faults f =
  let rate name r =
    if not (r >= 0. && r <= 1.) then
      invalid_arg (Printf.sprintf "Netem: %s %g outside [0,1]" name r)
  in
  rate "duplicate_rate" f.duplicate_rate;
  rate "corrupt_rate" f.corrupt_rate;
  rate "corrupt_flip" f.corrupt_flip;
  rate "reorder_rate" f.reorder_rate;
  rate "mutate_rate" f.mutate_rate;
  if f.duplicate_copies < 1 then invalid_arg "Netem: duplicate_copies < 1";
  if f.reorder_window < 0. then invalid_arg "Netem: negative reorder_window"

(* Directed pairs are keyed [src * size + dst] in int-specialised
   tables and endpoints index arrays directly, so a lookup hashes no
   tuple and a queue update boxes no float. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  topo : Topology.t;
  size : int;  (* endpoints: [Topology.size topo] *)
  jitter : float;
  serialize_access : bool;
  rng : Dsim.Rng.t;
  overrides : Linkprop.t Itbl.t;
  isolated : bool array;
  uplink_free : float array;  (* endpoint -> time its uplink frees up *)
  downlink_free : float array;
  mutable faults : faults;  (* default for every pair *)
  pair_faults : faults Itbl.t;  (* directed-pair overrides *)
  mutable reorders : int;  (* messages held back by the reorder fault *)
}

let create ?(jitter = 0.05) ?(serialize_access = true) ~rng topo =
  if jitter < 0. then invalid_arg "Netem.create: negative jitter";
  let size = Topology.size topo in
  {
    topo;
    size;
    jitter;
    serialize_access;
    rng;
    overrides = Itbl.create 64;
    isolated = Array.make size false;
    (* never busy: [Float.max now neg_infinity = now] *)
    uplink_free = Array.make size neg_infinity;
    downlink_free = Array.make size neg_infinity;
    faults = no_faults;
    pair_faults = Itbl.create 16;
    reorders = 0;
  }

let topology t = t.topo

let copy t =
  {
    t with
    rng = Dsim.Rng.copy t.rng;
    overrides = Itbl.copy t.overrides;
    isolated = Array.copy t.isolated;
    uplink_free = Array.copy t.uplink_free;
    downlink_free = Array.copy t.downlink_free;
    pair_faults = Itbl.copy t.pair_faults;
  }

let in_range t e = e >= 0 && e < t.size

let pair t ~src ~dst =
  if not (in_range t src && in_range t dst) then invalid_arg "Netem: endpoint out of range";
  (src * t.size) + dst

(* The tables are empty on every fault-free path: skip the hash. *)
let find_pair tbl t ~src ~dst =
  if Itbl.length tbl = 0 then None else Itbl.find_opt tbl ((src * t.size) + dst)

let reorders t = t.reorders
let global_faults t = t.faults

let set_faults t f =
  validate_faults f;
  t.faults <- f

let set_pair_faults t ~src ~dst f =
  validate_faults f;
  Itbl.replace t.pair_faults (pair t ~src ~dst) f

let clear_pair_faults t ~src ~dst = Itbl.remove t.pair_faults (pair t ~src ~dst)

let pair_faults_of t ~src ~dst =
  match find_pair t.pair_faults t ~src ~dst with Some f -> f | None -> t.faults

(* An out-of-range pair can have no entry. *)
let faults_of t ~src ~dst =
  if in_range t src && in_range t dst then pair_faults_of t ~src ~dst else t.faults

let blackhole = Linkprop.v ~latency:0.001 ~bandwidth:1. ~loss:1.

let path t ~src ~dst =
  (* Out of range: [Topology.path] raises its own error. *)
  if not (in_range t src && in_range t dst) then Topology.path t.topo src dst
  else if t.isolated.(src) || t.isolated.(dst) then blackhole
  else
    match find_pair t.overrides t ~src ~dst with
    | Some p -> p
    | None -> Topology.path t.topo src dst

(* Occupies [endpoint]'s link (up or down) for [tx] seconds starting no
   earlier than [now]; returns the extra queueing delay incurred. *)
let enqueue table endpoint ~now ~tx =
  let start = Float.max now table.(endpoint) in
  table.(endpoint) <- start +. tx;
  start -. now

let judge t ~now ~src ~dst ~bytes =
  let p = path t ~src ~dst in
  if Dsim.Rng.uniform t.rng < p.Linkprop.loss then Drop "loss"
  else begin
    let tx = float_of_int bytes /. p.Linkprop.bandwidth in
    let queueing =
      if not t.serialize_access then 0.
      else
        let up = enqueue t.uplink_free src ~now ~tx in
        let down = enqueue t.downlink_free dst ~now:(now +. up) ~tx in
        up +. down
    in
    let base = p.Linkprop.latency +. tx +. queueing in
    let noise =
      if t.jitter = 0. then 1.
      else
        (* Clamp multiplicative noise so delays never go negative. *)
        Float.max 0.1 (1. +. (t.jitter *. ((2. *. Dsim.Rng.uniform t.rng) -. 1.)))
    in
    let delay = base *. noise in
    (* Adversarial channel faults. Every draw is guarded by a
       rate-positivity check so that a fault-free configuration consumes
       exactly the same RNG stream as before this layer existed — seeded
       experiments stay bit-identical unless faults are switched on. *)
    let f = pair_faults_of t ~src ~dst in
    let delay =
      if f.reorder_rate > 0. && Dsim.Rng.uniform t.rng < f.reorder_rate then begin
        (* Held back by up to a full window — enough to overtake any
           number of later sends, inverting order beyond what
           multiplicative jitter can produce. *)
        t.reorders <- t.reorders + 1;
        delay +. Dsim.Rng.float t.rng f.reorder_window
      end
      else delay
    in
    if f.corrupt_rate > 0. && Dsim.Rng.uniform t.rng < f.corrupt_rate then
      Corrupt { delay; flip = f.corrupt_flip }
    else if f.duplicate_rate > 0. && Dsim.Rng.uniform t.rng < f.duplicate_rate then begin
      (* Ghost copies trail the original by up to a few RTTs (or the
         reorder window when one is configured), like retransmission
         storms do. *)
      let spread = Float.max f.reorder_window ((4. *. p.Linkprop.latency) +. 0.01) in
      let extras =
        List.init f.duplicate_copies (fun _ -> delay +. Dsim.Rng.float t.rng spread)
      in
      Duplicate (delay :: extras)
    end
    (* The byzantine draw comes after every pre-existing fault so a
       plan with mutation off consumes exactly the historical RNG
       stream — and a message already claimed by corruption or
       duplication is never also mutated. *)
    else if f.mutate_rate > 0. && Dsim.Rng.uniform t.rng < f.mutate_rate then Mutate delay
    else Deliver delay
  end

let occupy_access t ~endpoint ~now ~bytes =
  if t.serialize_access then begin
    (* Access bandwidth approximated by the endpoint's cheapest outgoing
       path (its own access link bounds every path). *)
    let n = Topology.size t.topo in
    let bw = ref infinity in
    for other = 0 to n - 1 do
      if other <> endpoint then begin
        let p = path t ~src:endpoint ~dst:other in
        if p.Linkprop.bandwidth < !bw then bw := p.Linkprop.bandwidth
      end
    done;
    let bw = if Float.is_finite !bw then !bw else 1_000_000. in
    let tx = float_of_int bytes /. bw in
    ignore (enqueue t.uplink_free endpoint ~now ~tx);
    ignore (enqueue t.downlink_free endpoint ~now ~tx)
  end

let set_override t ~src ~dst p = Itbl.replace t.overrides (pair t ~src ~dst) p
let clear_override t ~src ~dst = Itbl.remove t.overrides (pair t ~src ~dst)
let cut t ~src ~dst = set_override t ~src ~dst blackhole

let cut_bidirectional t a b =
  cut t ~src:a ~dst:b;
  cut t ~src:b ~dst:a

let heal t ~src ~dst = clear_override t ~src ~dst
let check_endpoint t e = if not (in_range t e) then invalid_arg "Netem: endpoint out of range"

let isolate t e =
  check_endpoint t e;
  t.isolated.(e) <- true

let rejoin t e =
  check_endpoint t e;
  t.isolated.(e) <- false

let is_isolated t e = in_range t e && t.isolated.(e)
