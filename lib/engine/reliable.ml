type config = {
  base_timeout : float;
  backoff : float;
  max_retries : int;
  jitter : float;
  ack_bytes : int;
}

let default = { base_timeout = 0.25; backoff = 2.0; max_retries = 5; jitter = 0.1; ack_bytes = 24 }

type 'msg entry = {
  src : Proto.Node_id.t;
  dst : Proto.Node_id.t;
  msg : 'msg;
  tries : int;  (** retransmissions performed so far *)
}

(* Sequence numbers are dense from 0, so the sender's pending sends
   live in a ring indexed by [seq land (Array.length slots - 1)]: the
   ring holds every seq in [[base, next_seq)], acked ones as [None].
   [base] is the oldest seq still pending (or [next_seq] when none is),
   so the ring spans from the oldest pending send to the newest and
   doubles when a send would wrap onto [base]. *)
type 'msg t = {
  cfg : config;
  timeouts : float array;
      (* [base_timeout *. backoff ** tries] for [tries = 0 .. max_retries] *)
  mutable next_seq : int;
  mutable base : int;
  mutable slots : 'msg entry option array;  (* length a power of two *)
  mutable seen : Bytes.t;
      (* receiver side: bit [seq] is set once [seq] was handled. Seqs
         are dense from 0, so one bit each beats a hash table entry *)
}

let backoff_timeout cfg ~tries = cfg.base_timeout *. (cfg.backoff ** float_of_int tries)

let create config =
  if config.base_timeout <= 0. then invalid_arg "Sim.enable_reliable: base_timeout must be positive";
  if config.backoff < 1. then invalid_arg "Sim.enable_reliable: backoff must be >= 1";
  if config.max_retries < 0 then invalid_arg "Sim.enable_reliable: negative max_retries";
  if config.jitter < 0. then invalid_arg "Sim.enable_reliable: negative jitter";
  if config.ack_bytes <= 0 then invalid_arg "Sim.enable_reliable: ack_bytes must be positive";
  {
    cfg = config;
    timeouts = Array.init (config.max_retries + 1) (fun tries -> backoff_timeout config ~tries);
    next_seq = 0;
    base = 0;
    slots = Array.make 64 None;
    seen = Bytes.make 32 '\000';
  }

let copy r = { r with slots = Array.copy r.slots; seen = Bytes.copy r.seen }
let ack_bytes r = r.cfg.ack_bytes

(* A full ring (every slot in [[base, next_seq)]) doubles, each pending
   send moving to its slot under the wider mask. *)
let grow r =
  let old = r.slots in
  let cap = 2 * Array.length old in
  let slots = Array.make cap None in
  for seq = r.base to r.next_seq - 1 do
    slots.(seq land (cap - 1)) <- old.(seq land (Array.length old - 1))
  done;
  r.slots <- slots

let track r ~src ~dst msg =
  let seq = r.next_seq in
  if seq - r.base = Array.length r.slots then grow r;
  r.next_seq <- seq + 1;
  r.slots.(seq land (Array.length r.slots - 1)) <- Some { src; dst; msg; tries = 0 };
  seq

(* Exponential backoff plus a random spread, so a burst of sends lost
   to one partition does not retransmit in lockstep. The draw happens
   only while the layer is on — off, the engine's RNG stream is
   untouched. *)
let timeout r rng ~tries =
  let base =
    if tries >= 0 && tries < Array.length r.timeouts then r.timeouts.(tries)
    else backoff_timeout r.cfg ~tries
  in
  if r.cfg.jitter > 0. then base *. (1. +. (r.cfg.jitter *. Dsim.Rng.uniform rng)) else base

let capacity r = Array.length r.slots
let in_ring r seq = seq >= r.base && seq < r.next_seq
let find r seq = if in_ring r seq then r.slots.(seq land (Array.length r.slots - 1)) else None

(* Removing the oldest pending send moves [base] past every acked slot
   behind it. *)
let remove r seq =
  match find r seq with
  | None -> ()
  | Some _ ->
      let mask = Array.length r.slots - 1 in
      r.slots.(seq land mask) <- None;
      while r.base < r.next_seq && Option.is_none r.slots.(r.base land mask) do
        r.base <- r.base + 1
      done

type 'msg timeout = Give_up | Resend of 'msg entry | Refused of 'msg entry

let timed_out r seq e ~breaker ~suspected ~pressure ~now =
  let src = Proto.Node_id.to_int e.src and dst = Proto.Node_id.to_int e.dst in
  (* The timeout itself is failure evidence; the detector's word
     upgrades it to an instant trip. *)
  Option.iter
    (fun cb ->
      Net.Circuit_breaker.record_failure cb ~src ~dst ~now;
      if suspected () then Net.Circuit_breaker.trip cb ~src ~dst ~now)
    breaker;
  (* Adaptive retry budget: halve it while the breaker refuses the
     pair or the sender's own mailbox is under pressure; it recovers
     to the full budget the moment the breaker closes. *)
  let halved =
    match breaker with
    | Some cb -> (not (Net.Circuit_breaker.allow cb ~src ~dst ~now)) || pressure () >= 0.5
    | None -> false
  in
  let budget = if halved then Int.max 1 (r.cfg.max_retries / 2) else r.cfg.max_retries in
  if e.tries >= budget then begin
    remove r seq;
    Give_up
  end
  else begin
    let e = { e with tries = e.tries + 1 } in
    if in_ring r seq then r.slots.(seq land (Array.length r.slots - 1)) <- Some e;
    (* Consult the breaker before putting bytes on the wire. A
       refused attempt still re-arms the timer, so the pending entry
       resolves one way or the other (ack of an earlier copy, a probe
       getting through, or give-up). *)
    match breaker with
    | Some cb when not (Net.Circuit_breaker.acquire cb ~src ~dst ~now) -> Refused e
    | Some _ | None -> Resend e
  end

let first_arrival r seq =
  let byte = seq lsr 3 and bit = 1 lsl (seq land 7) in
  let len = Bytes.length r.seen in
  if byte >= len then begin
    let seen = Bytes.make (Int.max (2 * len) (byte + 1)) '\000' in
    Bytes.blit r.seen 0 seen 0 len;
    r.seen <- seen
  end;
  let b = Bytes.get_uint8 r.seen byte in
  if b land bit <> 0 then false
  else begin
    Bytes.set_uint8 r.seen byte (b lor bit);
    true
  end
