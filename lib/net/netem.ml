type verdict =
  | Deliver
  | Drop of string
  | Duplicate of float list
  | Corrupt of { flip : float }
  | Mutate

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

(* The delay of the latest delivering verdict. A float-only record is
   stored flat, so [judge] writes it without boxing. *)
type out = { mutable delay : float }

(* Directed pairs live in {!Pair_rows} (row [src], column [dst]) and
   endpoints index arrays directly, so a lookup hashes nothing and a
   queue update boxes no float. *)
type t = {
  topo : Topology.t;
  size : int;  (* endpoints: [Topology.size topo] *)
  jitter : float;
  serialize_access : bool;
  rng : Dsim.Rng.t;
  overrides : Linkprop.t Pair_rows.t;
  isolated : bool array;
  uplink_free : float array;  (* endpoint -> time its uplink frees up *)
  downlink_free : float array;
  mutable faults : faults;  (* default for every pair *)
  pair_faults : faults Pair_rows.t;  (* directed-pair overrides *)
  mutable reorders : int;  (* messages held back by the reorder fault *)
  out : out;
}

(* The pair tables' empty slots. They are private and compared by
   [==], so each must be a block of its own: [Sys.opaque_identity]
   keeps the compiler from turning them into constants it may share
   with an equal one, such as [no_faults] itself, which a caller may
   pin a pair to. *)
let no_override : Linkprop.t = { latency = Sys.opaque_identity 0.; bandwidth = 1.; loss = 0. }
let no_pair_faults = { no_faults with duplicate_copies = Sys.opaque_identity 1 }

let create ?(jitter = 0.05) ?(serialize_access = true) ~rng topo =
  if jitter < 0. then invalid_arg "Netem.create: negative jitter";
  let size = Topology.size topo in
  {
    topo;
    size;
    jitter;
    serialize_access;
    rng;
    overrides = Pair_rows.create ~absent:no_override;
    isolated = Array.make size false;
    (* never busy: [Float.max now neg_infinity = now] *)
    uplink_free = Array.make size neg_infinity;
    downlink_free = Array.make size neg_infinity;
    faults = no_faults;
    pair_faults = Pair_rows.create ~absent:no_pair_faults;
    reorders = 0;
    out = { delay = 0. };
  }

let topology t = t.topo

let copy t =
  {
    t with
    rng = Dsim.Rng.copy t.rng;
    overrides = Pair_rows.copy t.overrides Fun.id;
    isolated = Array.copy t.isolated;
    uplink_free = Array.copy t.uplink_free;
    downlink_free = Array.copy t.downlink_free;
    pair_faults = Pair_rows.copy t.pair_faults Fun.id;
    out = { delay = t.out.delay };
  }

let in_range t e = e >= 0 && e < t.size

let check_pair t ~src ~dst =
  if not (in_range t src && in_range t dst) then invalid_arg "Netem: endpoint out of range"

let reorders t = t.reorders
let global_faults t = t.faults

let set_faults t f =
  validate_faults f;
  t.faults <- f

let set_pair_faults t ~src ~dst f =
  validate_faults f;
  check_pair t ~src ~dst;
  Pair_rows.set t.pair_faults src dst f

let clear_pair_faults t ~src ~dst =
  check_pair t ~src ~dst;
  Pair_rows.set t.pair_faults src dst no_pair_faults

let pair_faults_of t ~src ~dst =
  let f = Pair_rows.find t.pair_faults src dst in
  if f == no_pair_faults then t.faults else f

(* An out-of-range pair can have no entry. *)
let faults_of t ~src ~dst =
  if in_range t src && in_range t dst then pair_faults_of t ~src ~dst else t.faults

let blackhole = Linkprop.v ~latency:0.001 ~bandwidth:1. ~loss:1.

let path t ~src ~dst =
  (* Out of range: [Topology.path] raises its own error. *)
  if not (in_range t src && in_range t dst) then Topology.path t.topo src dst
  else if t.isolated.(src) || t.isolated.(dst) then blackhole
  else
    let p = Pair_rows.find t.overrides src dst in
    if p == no_override then Topology.path t.topo src dst else p

(* Occupies [endpoint]'s link (up or down) for [tx] seconds starting no
   earlier than [now]; returns the extra queueing delay incurred. *)
let[@inline] enqueue table endpoint ~now ~tx =
  let start = Float.max now table.(endpoint) in
  table.(endpoint) <- start +. tx;
  start -. now

let delay t = t.out.delay

(* Ghost copies trail the original by up to a few RTTs (or the reorder
   window when one is configured), like retransmission storms do. The
   original's delay is read from [t.out], so [judge] passes no float. *)
let duplicates t f (p : Linkprop.t) =
  let delay = t.out.delay in
  let spread = Float.max f.reorder_window ((4. *. p.latency) +. 0.01) in
  let extras = List.init f.duplicate_copies (fun _ -> delay +. Dsim.Rng.float t.rng spread) in
  Duplicate (delay :: extras)

(* A fault-free verdict allocates nothing: [Deliver] is a constant and
   its delay goes to [t.out]. *)
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
    t.out.delay <- delay;
    if f.corrupt_rate > 0. && Dsim.Rng.uniform t.rng < f.corrupt_rate then
      Corrupt { flip = f.corrupt_flip }
    else if f.duplicate_rate > 0. && Dsim.Rng.uniform t.rng < f.duplicate_rate then
      duplicates t f p
    (* The byzantine draw comes after every pre-existing fault so a
       plan with mutation off consumes exactly the historical RNG
       stream — and a message already claimed by corruption or
       duplication is never also mutated. *)
    else if f.mutate_rate > 0. && Dsim.Rng.uniform t.rng < f.mutate_rate then Mutate
    else Deliver
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

let set_override t ~src ~dst p =
  check_pair t ~src ~dst;
  Pair_rows.set t.overrides src dst p

let clear_override t ~src ~dst =
  check_pair t ~src ~dst;
  Pair_rows.set t.overrides src dst no_override

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
