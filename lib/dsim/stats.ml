(* Samples live in a growable array (or a fixed-size reservoir when
   [capacity] is given).  Percentile queries sort once into [sorted] and
   reuse that array until the next [add] invalidates it — [pp_summary]
   asks for median, p99 and max back to back, which used to cost three
   full sorts per call. *)

(* The running moments, in a record of floats only so that OCaml stores
   it flat and [add] writes them without boxing: an obs histogram
   observes every delivery. *)
type moments = {
  mutable total : float;
  mutable total_sq : float;
  mutable lo : float;
  mutable hi : float;
}

type t = {
  mutable samples : float array;
  mutable len : int;  (** live prefix of [samples] *)
  mutable sorted : float array option;  (** cache; [None] after a mutation *)
  mutable sorts : int;  (** number of sorts performed, for regression tests *)
  capacity : int option;  (** reservoir bound; [None] = unbounded *)
  rng : Rng.t option;  (** reservoir coin-flips; only with [capacity] *)
  mutable n : int;
  m : moments;
}

let create ?capacity ?(seed = 0x5157) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Stats.create: capacity must be positive"
  | _ -> ());
  {
    samples = [||];
    len = 0;
    sorted = None;
    sorts = 0;
    capacity;
    rng = Option.map (fun _ -> Rng.create seed) capacity;
    n = 0;
    m = { total = 0.; total_sq = 0.; lo = infinity; hi = neg_infinity };
  }

let ensure_room t =
  let cap = Array.length t.samples in
  if t.len >= cap then begin
    let cap' = Stdlib.max 16 (2 * cap) in
    let cap' = match t.capacity with Some c -> Stdlib.min c cap' | None -> cap' in
    let bigger = Array.make cap' 0. in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end

let add t x =
  t.n <- t.n + 1;
  let m = t.m in
  m.total <- m.total +. x;
  m.total_sq <- m.total_sq +. (x *. x);
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x;
  match t.capacity with
  | None ->
      ensure_room t;
      t.samples.(t.len) <- x;
      t.len <- t.len + 1;
      t.sorted <- None
  | Some cap ->
      if t.len < cap then begin
        ensure_room t;
        t.samples.(t.len) <- x;
        t.len <- t.len + 1;
        t.sorted <- None
      end
      else begin
        (* Algorithm R: sample i (0-based) replaces a random slot with
           probability cap/(i+1); the retained set stays uniform. *)
        let j = Rng.int (Option.get t.rng) t.n in
        if j < cap then begin
          t.samples.(j) <- x;
          t.sorted <- None
        end
      end

let count t = t.n
let retained t = t.len
let sum t = t.m.total
let mean t = if t.n = 0 then 0. else t.m.total /. float_of_int t.n

let variance t =
  if t.n < 2 then 0.
  else
    let m = mean t in
    Float.max 0. ((t.m.total_sq /. float_of_int t.n) -. (m *. m))

let stddev t = sqrt (variance t)

let min t = if t.n = 0 then invalid_arg "Stats.min: empty" else t.m.lo
let max t = if t.n = 0 then invalid_arg "Stats.max: empty" else t.m.hi

let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub t.samples 0 t.len in
      Array.sort Float.compare a;
      t.sorts <- t.sorts + 1;
      t.sorted <- Some a;
      a

let sorts_performed t = t.sorts

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: out of range";
  let a = sorted_samples t in
  let n = Array.length a in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo_idx = int_of_float (Float.floor rank) in
  let hi_idx = Stdlib.min (n - 1) (lo_idx + 1) in
  let frac = rank -. float_of_int lo_idx in
  a.(lo_idx) +. (frac *. (a.(hi_idx) -. a.(lo_idx)))

let median t = percentile t 50.
let to_list t = Array.to_list (Array.sub t.samples 0 t.len)

let merge a b =
  let t = create () in
  List.iter (add t) (to_list a);
  List.iter (add t) (to_list b);
  t

let pp_summary ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.n (mean t)
      (median t) (percentile t 99.) (max t)

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    width : float;
    counts : int array;
    mutable underflow : int;
    mutable overflow : int;
  }

  let create ~lo ~hi ~buckets =
    if not (lo < hi) then invalid_arg "Histogram.create: lo must be < hi";
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      counts = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
    }

  let add h x =
    (* NaN fails [x >= h.lo] and lands in underflow rather than
       corrupting a bucket index. *)
    if not (x >= h.lo) then h.underflow <- h.underflow + 1
    else if x >= h.hi then h.overflow <- h.overflow + 1
    else begin
      let n = Array.length h.counts in
      let i = Stdlib.min (n - 1) (int_of_float ((x -. h.lo) /. h.width)) in
      h.counts.(i) <- h.counts.(i) + 1
    end

  let counts h = Array.copy h.counts
  let underflow h = h.underflow
  let overflow h = h.overflow

  let bucket_bounds h i =
    let lo = h.lo +. (float_of_int i *. h.width) in
    (lo, lo +. h.width)

  let total h = Array.fold_left ( + ) (h.underflow + h.overflow) h.counts

  let pp ppf h =
    Format.fprintf ppf "@[<v>";
    if h.underflow > 0 then Format.fprintf ppf "underflow (-inf, %g): %d@," h.lo h.underflow;
    Array.iteri
      (fun i c ->
        let blo, bhi = bucket_bounds h i in
        Format.fprintf ppf "[%g, %g): %d@," blo bhi c)
      h.counts;
    if h.overflow > 0 then Format.fprintf ppf "overflow [%g, +inf): %d@," h.hi h.overflow;
    Format.fprintf ppf "@]"
end
