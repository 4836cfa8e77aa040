type config = {
  base_timeout : float;  (** first retransmit fires after this *)
  backoff : float;  (** timeout multiplier per retry (>= 1) *)
  max_retries : int;  (** retransmissions before giving up *)
  jitter : float;  (** fraction of random spread added to each timeout *)
  ack_bytes : int;  (** wire size of an ack, for Netem's delay model *)
  suspect_cap : int;
      (** while the failure detector suspects the destination, at most
          this many sends may sit pending per directed pair — the
          excess is shed (with a ["rel.shed:<kind>"] notification)
          instead of growing an unbounded retransmit queue toward a
          silent peer. 0 = unbounded (the historical behaviour). *)
}

let default =
  { base_timeout = 0.25; backoff = 2.0; max_retries = 5; jitter = 0.1; ack_bytes = 24; suspect_cap = 0 }

type 'msg entry = {
  src : Proto.Node_id.t;
  dst : Proto.Node_id.t;
  msg : 'msg;
  tries : int;  (** retransmissions performed so far *)
}

module Itbl = Hashtbl.Make (Int)

type 'msg t = {
  cfg : config;
  kinds : (string, unit) Hashtbl.t option;  (* [None] = every kind *)
  mutable next_seq : int;
  pending : 'msg entry Itbl.t;  (* sender side: unacked sends *)
  mutable seen : Bytes.t;
      (* receiver side: bit [seq] is set once [seq] was handled. Seqs
         are dense from 0, so one bit each beats a hash table entry *)
  endpoints : int;
  pair : int Itbl.t;
      (* pending count per directed pair, keyed [src * endpoints + dst],
         for the suspect cap; kept at 0 *)
}

let create ?kinds ~endpoints config =
  if config.base_timeout <= 0. then invalid_arg "Sim.enable_reliable: base_timeout must be positive";
  if config.backoff < 1. then invalid_arg "Sim.enable_reliable: backoff must be >= 1";
  if config.max_retries < 0 then invalid_arg "Sim.enable_reliable: negative max_retries";
  if config.jitter < 0. then invalid_arg "Sim.enable_reliable: negative jitter";
  if config.ack_bytes <= 0 then invalid_arg "Sim.enable_reliable: ack_bytes must be positive";
  if config.suspect_cap < 0 then invalid_arg "Sim.enable_reliable: negative suspect_cap";
  let kinds =
    Option.map
      (fun ks ->
        let h = Hashtbl.create 8 in
        List.iter (fun k -> Hashtbl.replace h k ()) ks;
        h)
      kinds
  in
  {
    cfg = config;
    kinds;
    next_seq = 0;
    pending = Itbl.create 64;
    seen = Bytes.make 32 '\000';
    endpoints;
    pair = Itbl.create 64;
  }

let copy r =
  { r with pending = Itbl.copy r.pending; seen = Bytes.copy r.seen; pair = Itbl.copy r.pair }

let ack_bytes r = r.cfg.ack_bytes
let tracked r kind = match r.kinds with None -> true | Some h -> Hashtbl.mem h kind
let pair_key r (e : _ entry) =
  (Proto.Node_id.to_int e.src * r.endpoints) + Proto.Node_id.to_int e.dst
(* A pair whose count falls to zero keeps its key, so the lookup on
   every tracked send and ack neither allocates nor, after the pair's
   first send, raises. *)
let count r key = match Itbl.find r.pair key with n -> n | exception Not_found -> 0
let pending_on r e = count r (pair_key r e)

let track r ~src ~dst msg =
  let seq = r.next_seq in
  r.next_seq <- seq + 1;
  let e = { src; dst; msg; tries = 0 } in
  Itbl.replace r.pending seq e;
  let key = pair_key r e in
  Itbl.replace r.pair key (1 + count r key);
  seq

(* Exponential backoff plus a random spread, so a burst of sends lost
   to one partition does not retransmit in lockstep. The draw happens
   only while the layer is on — off, the engine's RNG stream is
   untouched. *)
let timeout r rng ~tries =
  let base = r.cfg.base_timeout *. (r.cfg.backoff ** float_of_int tries) in
  if r.cfg.jitter > 0. then base *. (1. +. (r.cfg.jitter *. Dsim.Rng.uniform rng)) else base

let find r seq = Itbl.find_opt r.pending seq

(* Every removal path (ack, give-up, shed, dead sender) goes through
   here, keeping the per-pair count honest. *)
let remove r seq e =
  Itbl.remove r.pending seq;
  let key = pair_key r e in
  match count r key with 0 -> () | n -> Itbl.replace r.pair key (n - 1)

type 'msg timeout = Shed | Give_up | Resend of 'msg entry | Refused of 'msg entry

let timed_out r seq e ~breaker ~suspected ~pressure ~now =
  let src = Proto.Node_id.to_int e.src and dst = Proto.Node_id.to_int e.dst in
  (* Bounded retransmit queue toward a suspected peer: past the cap,
     shed instead of growing without limit — the peer is silent and
     every pending send is already being retried. *)
  if r.cfg.suspect_cap > 0 && pending_on r e > r.cfg.suspect_cap && suspected () then begin
    remove r seq e;
    Shed
  end
  else begin
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
      remove r seq e;
      Give_up
    end
    else begin
      let e = { e with tries = e.tries + 1 } in
      Itbl.replace r.pending seq e;
      (* Consult the breaker before putting bytes on the wire. A
         refused attempt still re-arms the timer, so the pending entry
         resolves one way or the other (ack of an earlier copy, a probe
         getting through, or give-up). *)
      match breaker with
      | Some cb when not (Net.Circuit_breaker.acquire cb ~src ~dst ~now) -> Refused e
      | Some _ | None -> Resend e
    end
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
