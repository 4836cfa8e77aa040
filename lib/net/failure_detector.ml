(* Phi-accrual failure detection (Hayashibara et al., SRDS'04) over the
   same EWMA/age machinery as {!Netmodel}: every delivery the engine
   observes doubles as an implicit heartbeat for the directed pair, and
   the detector learns the pair's inter-arrival rhythm.  Suspicion is
   then a *level*, not a boolean: phi grows continuously with the age of
   the last arrival measured against the learned interval, exactly the
   "confidence that decays with information age" shape the predictive
   model is built on — Netmodel decays what it *knows*, the detector
   accrues what it *misses*.

   Determinism: the detector is pure arithmetic over virtual-time
   arrival observations.  It owns no RNG and draws nothing, so
   attaching it to an engine changes no seeded run. *)

(* Float fields only, so the record is stored flat and a heartbeat
   writes it without boxing anything. *)
type cell = {
  mutable mean : float;  (* EWMA of inter-arrival seconds *)
  mutable n : float;  (* arrivals observed, exact up to 2^53 *)
  mutable at : float;  (* last arrival, virtual seconds *)
}

(* [cells] holds the pair [(observer, peer)] at row [observer], column
   [peer]. An unwritten slot holds [absent], which no write path
   reaches, so its [n] stays 0: under every [min_samples], silent, and
   no peer. *)
type t = {
  alpha : float;
  threshold : float;
  bootstrap_interval : float;
  min_samples : int;
  cells : cell Pair_rows.t;
}

let absent = { mean = 0.; n = 0.; at = 0. }

let create ?(alpha = 0.25) ?(threshold = 8.) ?(bootstrap_interval = 1.) ?(min_samples = 3) () =
  if alpha <= 0. || alpha > 1. then invalid_arg "Failure_detector.create: alpha out of (0,1]";
  if threshold <= 0. then invalid_arg "Failure_detector.create: non-positive threshold";
  if bootstrap_interval <= 0. then
    invalid_arg "Failure_detector.create: non-positive bootstrap interval";
  if min_samples < 1 then invalid_arg "Failure_detector.create: min_samples < 1";
  { alpha; threshold; bootstrap_interval; min_samples; cells = Pair_rows.create ~absent }

let copy t = { t with cells = Pair_rows.copy t.cells (fun c -> { c with mean = c.mean }) }

(* Out of range, negative included, reads as never heard. *)
let find t ~observer ~peer = Pair_rows.find t.cells observer peer

let threshold t = t.threshold

(* log10(e): phi = elapsed / mean * this is the exponential-arrival
   simplification of the original normal-CDF formulation (the one
   Cassandra ships); phi = 1 means "this silence had probability 10%
   under the learned rhythm", phi = 8 means 10^-8. *)
let log10_e = 0.4342944819032518

(* The learned mean is floored at the bootstrap interval: application
   traffic arrives in bursts (a paxos round is microseconds of
   back-to-back messages, then silence until the next command), and an
   unfloored EWMA would learn the within-burst gap as the rhythm and
   call every inter-burst pause a failure. The floor makes the detector
   demand at least [threshold / log10_e ~= 18x] bootstrap intervals of
   *absolute* silence — so it reacts to partitions and crashes, not to
   the duty cycle of a healthy protocol. *)
let[@inline] interval_of t c =
  if c.n < 2. then t.bootstrap_interval else Float.max t.bootstrap_interval c.mean

let[@inline] phi_of t c ~now =
  if c.n < float_of_int t.min_samples then 0.
  else
    let elapsed = Float.max 0. (Dsim.Vtime.to_seconds now -. c.at) in
    elapsed /. interval_of t c *. log10_e

(* [heartbeat] records an arrival from [peer] as seen by [observer] and
   returns [true] when the pair was suspected just before this arrival —
   the recovery edge the engine counts. *)
let heartbeat t ~observer ~peer ~now =
  let c = find t ~observer ~peer in
  if c == absent then begin
    Pair_rows.set t.cells observer peer { mean = 0.; n = 1.; at = Dsim.Vtime.to_seconds now };
    false
  end
  else begin
    let was_suspected = phi_of t c ~now >= t.threshold in
    let sample = Float.max 0. (Dsim.Vtime.to_seconds now -. c.at) in
    (* Cap the sample so one long outage does not poison the learned
       interval: a 30 s partition must not teach the detector that
       30 s silences are normal, or it would take another outage to
       re-suspect the peer. *)
    let sample = if c.n >= 2. then Float.min sample (3. *. interval_of t c) else sample in
    if c.n = 1. then c.mean <- sample
    else c.mean <- ((1. -. t.alpha) *. c.mean) +. (t.alpha *. sample);
    c.n <- c.n +. 1.;
    c.at <- Dsim.Vtime.to_seconds now;
    was_suspected
  end

let phi t ~observer ~peer ~now = phi_of t (find t ~observer ~peer) ~now

let suspicion t ~observer ~peer ~now =
  Float.min 1. (phi t ~observer ~peer ~now /. t.threshold)

let suspected t ~observer ~peer ~now = phi t ~observer ~peer ~now >= t.threshold

let samples t ~observer ~peer = int_of_float (find t ~observer ~peer).n

let known_peers t ~observer =
  Pair_rows.fold_row_rev t.cells observer (fun _ peer acc -> peer :: acc) []
