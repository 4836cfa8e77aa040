(* Differential test for the reliable-delivery tables. The oracle below
   is the hash-table implementation the sequence ring replaced, kept
   verbatim apart from re-exporting its entry type. It still has the
   suspected-peer cap and the kinds filter the ring has since dropped;
   the runs below keep both off ([suspect_cap = 0], every kind), the
   only settings the ring implements. Random sequences of tracks, acks,
   timeouts, copies and arrivals run against both, and after every step
   [find] on every sequence number issued so far (and the next one) must
   agree exactly. *)

module Oracle = struct
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

  type 'msg entry = 'msg Engine.Reliable.entry = {
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
end

module R = Engine.Reliable

let nid = Proto.Node_id.of_int
let endpoints = 4

(* The oracle's configuration for a ring configuration: the cap off. *)
let oracle_config (c : R.config) : Oracle.config =
  {
    base_timeout = c.base_timeout;
    backoff = c.backoff;
    max_retries = c.max_retries;
    jitter = c.jitter;
    ack_bytes = c.ack_bytes;
    suspect_cap = 0;
  }

(* One side of the run: both implementations, fed the same operations,
   each with its own breaker. [next] counts the sequence numbers
   issued. *)
type side = {
  o : int Oracle.t;
  n : int R.t;
  ob : Net.Circuit_breaker.t option;
  nb : Net.Circuit_breaker.t option;
  mutable next : int;
  mutable widest : int;  (* widest span, oldest pending seq to [next], seen so far *)
}

let new_side cfg ~breaker =
  let cb () = if breaker then Some (Net.Circuit_breaker.create ()) else None in
  {
    o = Oracle.create ~endpoints (oracle_config cfg);
    n = R.create cfg;
    ob = cb ();
    nb = cb ();
    next = 0;
    widest = 0;
  }

let copy_side s =
  {
    o = Oracle.copy s.o;
    n = R.copy s.n;
    ob = Option.map Net.Circuit_breaker.copy s.ob;
    nb = Option.map Net.Circuit_breaker.copy s.nb;
    next = s.next;
    widest = s.widest;
  }

let pp_entry (e : int R.entry) =
  Printf.sprintf "{%d->%d msg=%d tries=%d}" (Proto.Node_id.to_int e.src)
    (Proto.Node_id.to_int e.dst) e.msg e.tries

let pp_found = function None -> "none" | Some e -> pp_entry e

(* The ring's memory bound: its capacity is the initial 64 or less
   than twice the widest span the oracle has held. A ring whose start
   never advanced would pass every [find] but grow without bound. *)
let check_capacity what s =
  let oldest = ref s.next in
  for seq = s.next - 1 downto 0 do
    if Option.is_some (Oracle.find s.o seq) then oldest := seq
  done;
  s.widest <- Int.max s.widest (s.next - !oldest);
  let cap = R.capacity s.n in
  if cap > Int.max 64 (2 * s.widest) then
    QCheck.Test.fail_reportf "%s: ring of %d slots for a widest span of %d" what cap s.widest

let check_side what s =
  for seq = 0 to s.next do
    let a = Oracle.find s.o seq and b = R.find s.n seq in
    if a <> b then
      QCheck.Test.fail_reportf "%s: find %d: oracle %s, ring %s" what seq (pp_found a) (pp_found b)
  done;
  check_capacity what s;
  if Oracle.ack_bytes s.o <> R.ack_bytes s.n then QCheck.Test.fail_reportf "%s: ack_bytes" what;
  (* the ring tracks every send *)
  if not (Oracle.tracked s.o "ping") then QCheck.Test.fail_reportf "%s: oracle filters kinds" what

type op =
  | Track of { other : bool; src : int; dst : int }
  | Ack of { other : bool; pick : int }
  | Timed_out of { other : bool; pick : int; suspected : bool; pressure : float; dt : float }
  | Copy of { other : bool }
  | Arrive of { other : bool; seq : int }
  | Timeout of { other : bool; tries : int; seed : int }
  | Churn of { other : bool; src : int; dst : int; sends : int }

let side_name other = if other then "other" else "main"

let pp_op = function
  | Track { other; src; dst } -> Printf.sprintf "track %s %d->%d" (side_name other) src dst
  | Ack { other; pick } -> Printf.sprintf "ack %s #%d" (side_name other) pick
  | Timed_out { other; pick; suspected; pressure; dt } ->
      Printf.sprintf "timed_out %s #%d suspected=%b pressure=%g +%g" (side_name other) pick
        suspected pressure dt
  | Copy { other } -> "copy into " ^ side_name other
  | Arrive { other; seq } -> Printf.sprintf "arrive %s %d" (side_name other) seq
  | Timeout { other; tries; seed } ->
      Printf.sprintf "timeout %s tries=%d seed=%d" (side_name other) tries seed
  | Churn { other; src; dst; sends } ->
      Printf.sprintf "churn %s %d->%d x%d" (side_name other) src dst sends

let gen_op =
  let open QCheck.Gen in
  let other = frequency [ (3, return false); (1, return true) ] in
  let node = 0 -- (endpoints - 1) in
  frequency
    [
      (6, map3 (fun other src dst -> Track { other; src; dst }) other node node);
      (4, map2 (fun other pick -> Ack { other; pick }) other nat);
      ( 3,
        map2
          (fun (other, pick) (suspected, pressure, dt) ->
            Timed_out { other; pick; suspected; pressure; dt })
          (pair other nat)
          (triple bool (oneofl [ 0.; 0.25; 0.5; 1. ]) (float_bound_inclusive 3.)) );
      (1, map (fun other -> Copy { other }) bool);
      (2, map2 (fun other seq -> Arrive { other; seq }) other (0 -- 200));
      (1, map3 (fun other tries seed -> Timeout { other; tries; seed }) other (0 -- 9) nat);
      ( 1,
        map2
          (fun (other, src, dst) sends -> Churn { other; src; dst; sends })
          (triple other node node) (0 -- 150) );
    ]

let gen_config =
  let open QCheck.Gen in
  map2
    (fun (base_timeout, backoff, max_retries) (jitter, ack_bytes) ->
      { R.base_timeout; backoff; max_retries; jitter; ack_bytes })
    (triple (oneofl [ 0.1; 0.25; 0.3 ]) (oneofl [ 1.; 1.5; 2.; 3. ]) (0 -- 6))
    (pair (oneofl [ 0.; 0.1 ]) (oneofl [ 1; 24 ]))

let arb_run =
  QCheck.make
    ~print:(fun ((cfg : R.config), breaker, ops) ->
      Printf.sprintf "base=%g backoff=%g retries=%d jitter=%g ack=%d breaker=%b: %s"
        cfg.base_timeout cfg.backoff cfg.max_retries cfg.jitter cfg.ack_bytes breaker
        (String.concat "; " (List.map pp_op ops)))
    QCheck.Gen.(triple gen_config bool (list_size (0 -- 80) gen_op))

let verdict = function
  | R.Give_up -> "give-up"
  | R.Resend e -> "resend " ^ pp_entry e
  | R.Refused e -> "refused " ^ pp_entry e

let oracle_verdict = function
  | Oracle.Shed -> "shed"
  | Oracle.Give_up -> "give-up"
  | Oracle.Resend e -> "resend " ^ pp_entry e
  | Oracle.Refused e -> "refused " ^ pp_entry e

(* The engine acks or times out only a send it just found pending:
   [pick] selects one of the issued sequence numbers, and the step is
   skipped when the oracle holds nothing there. *)
let with_pending s pick f =
  if s.next > 0 then
    let seq = pick mod s.next in
    match (Oracle.find s.o seq, R.find s.n seq) with
    | Some oe, Some ne -> f seq oe ne
    | _ -> ()

let track s ~src ~dst =
  let msg = s.next in
  let a = Oracle.track s.o ~src:(nid src) ~dst:(nid dst) msg
  and b = R.track s.n ~src:(nid src) ~dst:(nid dst) msg in
  if a <> b then QCheck.Test.fail_reportf "track: oracle seq %d, ring seq %d" a b;
  s.next <- s.next + 1;
  a

let ack s seq oe _ =
  Oracle.remove s.o seq oe;
  R.remove s.n seq

(* Breaker paths a run drove: sends an open breaker refused, and
   timeouts that met a half-open breaker (which re-open it). *)
let refusals = ref 0
let half_opens = ref 0

let run (cfg, breaker, ops) =
  let main = ref (new_side cfg ~breaker) and other = ref (new_side cfg ~breaker) in
  let now = ref 0. in
  let side o = if o then !other else !main in
  List.iter
    (fun op ->
      (match op with
      | Track { other = o; src; dst } -> ignore (track (side o) ~src ~dst)
      | Ack { other = o; pick } ->
          let s = side o in
          with_pending s pick (ack s)
      | Timed_out { other = o; pick; suspected; pressure; dt } ->
          now := !now +. dt;
          let s = side o in
          let at = Dsim.Vtime.of_seconds !now in
          with_pending s pick (fun seq oe ne ->
              let half_open =
                match s.nb with
                | Some cb ->
                    let src = Proto.Node_id.to_int ne.src and dst = Proto.Node_id.to_int ne.dst in
                    Net.Circuit_breaker.state cb ~src ~dst ~now:at = Net.Circuit_breaker.Half_open
                | None -> false
              in
              let a =
                Oracle.timed_out s.o seq oe ~breaker:s.ob ~suspected:(fun () -> suspected)
                  ~pressure:(fun () -> pressure) ~now:at
              and b =
                R.timed_out s.n seq ne ~breaker:s.nb ~suspected:(fun () -> suspected)
                  ~pressure:(fun () -> pressure) ~now:at
              in
              if oracle_verdict a <> verdict b then
                QCheck.Test.fail_reportf "timed_out %d: oracle %s, ring %s" seq (oracle_verdict a)
                  (verdict b);
              if half_open then incr half_opens;
              match b with R.Refused _ -> incr refusals | R.Resend _ | R.Give_up -> ())
      | Copy { other = true } -> other := copy_side !main
      | Copy { other = false } -> main := copy_side !other
      | Arrive { other = o; seq } ->
          let s = side o in
          let a = Oracle.first_arrival s.o seq and b = R.first_arrival s.n seq in
          if a <> b then QCheck.Test.fail_reportf "first_arrival %d: oracle %b, ring %b" seq a b
      | Timeout { other = o; tries; seed } ->
          let s = side o in
          let a = Oracle.timeout s.o (Dsim.Rng.create seed) ~tries
          and b = R.timeout s.n (Dsim.Rng.create seed) ~tries in
          if Int64.bits_of_float a <> Int64.bits_of_float b then
            QCheck.Test.fail_reportf "timeout tries=%d: oracle %h, ring %h" tries a b
      | Churn { other = o; src; dst; sends } ->
          let s = side o in
          for _ = 1 to sends do
            let seq = track s ~src ~dst in
            with_pending s seq (ack s)
          done);
      check_side "main" !main;
      check_side "other" !other)
    ops;
  true

let prop_ring_matches_oracle =
  QCheck.Test.make ~name:"reliable ring = hashed oracle" ~count:300 arb_run run

(* The ring's growth case: one send stays pending at seq 0 while
   10,000 later sends are tracked and acked, so [base] cannot move and
   the ring doubles behind it; then the pinned send is acked too. *)
let test_pinned_base () =
  if Oracle.default <> oracle_config R.default then Alcotest.fail "default configs differ";
  let s = new_side R.default ~breaker:false in
  let check_seq seq =
    let a = Oracle.find s.o seq and b = R.find s.n seq in
    if a <> b then
      Alcotest.failf "find %d after %d sends: oracle %s, ring %s" seq s.next (pp_found a)
        (pp_found b)
  in
  let pinned = track s ~src:0 ~dst:1 in
  for i = 1 to 10_000 do
    let seq = track s ~src:(i mod endpoints) ~dst:((i + 1) mod endpoints) in
    check_seq seq;
    with_pending s seq (ack s);
    check_seq seq;
    check_seq pinned;
    if i mod 1000 = 0 then check_side "pinned" s
  done;
  check_side "pinned" s;
  Alcotest.(check int) "ring holds the span" 16_384 (R.capacity s.n);
  with_pending s pinned (ack s);
  check_side "pinned, then acked" s;
  (* with nothing pending the ring's start follows the newest send, so
     another 20,000 acked sends need no more room *)
  for i = 1 to 20_000 do
    let seq = track s ~src:(i mod endpoints) ~dst:2 in
    with_pending s seq (ack s)
  done;
  check_side "churned" s;
  Alcotest.(check int) "no growth once the pinned send resolves" 16_384 (R.capacity s.n);
  for i = 0 to 99 do
    ignore (track s ~src:(i mod endpoints) ~dst:2)
  done;
  check_side "refilled" s

(* The default breaker (three failures, a 5 s cooldown, one probe)
   through both implementations on a fixed run: a suspected timeout
   trips the pair and the resend is refused, and a timeout 6 s later
   meets the breaker half-open and re-opens it. The random runs reach
   these paths too, but not in every seed. *)
let test_breaker_paths () =
  refusals := 0;
  half_opens := 0;
  let timed_out ~suspected dt =
    Timed_out { other = false; pick = 0; suspected; pressure = 0.; dt }
  in
  ignore
    (run
       ( { R.default with jitter = 0.; max_retries = 6 },
         true,
         [
           Track { other = false; src = 0; dst = 1 };
           timed_out ~suspected:true 0.5;
           timed_out ~suspected:false 1.;
           timed_out ~suspected:false 6.;
           timed_out ~suspected:false 0.5;
         ] ));
  Alcotest.(check int) "refusals" 3 !refusals;
  Alcotest.(check int) "half-open timeouts" 1 !half_opens

let () =
  Alcotest.run "reliable_diff"
    [
      ("qcheck", List.map QCheck_alcotest.to_alcotest [ prop_ring_matches_oracle ]);
      ( "ring",
        [
          Alcotest.test_case "pinned base under 10k sends" `Quick test_pinned_base;
          Alcotest.test_case "default breaker paths" `Quick test_breaker_paths;
        ] );
    ]
