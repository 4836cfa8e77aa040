type shed_policy =
  | Drop_newest  (** refuse the incoming message *)
  | Drop_oldest  (** evict the oldest queued message to make room *)
  | By_priority
      (** evict the lowest-priority queued message (ties broken
          oldest-first); the incoming message is refused instead when
          it ranks strictly below everything queued *)

type config = {
  mailbox_capacity : int;  (** in-flight bound per destination node; 0 = unbounded *)
  link_capacity : int;  (** in-flight bound per directed pair; 0 = unbounded *)
  shed : shed_policy;
  service_time : float;
      (** seconds of extra delivery delay per message already queued
          at the destination — the backlog model that makes queues
          cost latency; 0 = free (historical behaviour) *)
  admit_rate : float;  (** token-bucket injects/second at the inject boundary; 0 = unlimited *)
  admit_burst : int;  (** token-bucket depth *)
  sojourn_threshold : float;
      (** CoDel-style admission gate: refuse injects while the oldest
          message queued at the destination has waited longer than
          this; 0 = off *)
}

let default =
  {
    mailbox_capacity = 0;
    link_capacity = 0;
    shed = Drop_newest;
    service_time = 0.;
    admit_rate = 0.;
    admit_burst = 1;
    sojourn_threshold = 0.;
  }

type cause = [ `Mailbox | `Link | `Admission | `Sojourn ]
type entry = { src : int; dst : int; prio : int; at : Dsim.Vtime.t }

type t = {
  cfg : config;
  ordered : bool;
      (* whether [by_dst] is kept: only a bound's victim scan and the
         sojourn gate read it, so with neither configured it is never
         built and an idle layer retains nothing per delivery *)
  live : (int, entry) Hashtbl.t;  (* did -> queued arrival *)
  mbox : (int, int) Hashtbl.t;  (* dst -> live depth, kept at 0 *)
  link : (int * int, int) Hashtbl.t;  (* (src, dst) -> live depth, kept at 0 *)
  by_dst : (int, int list ref) Hashtbl.t;
      (* dst -> dids newest-first; compacted by every scan *)
  shed_set : (int, unit) Hashtbl.t;
      (* tombstones: dids shed while queued, consumed when their
         Deliver fires (the heap has no keyed removal) *)
  bursts : (int, int * float) Hashtbl.t;  (* dst -> (generation, rate) *)
  mutable next_did : int;
  mutable next_gen : int;
  mutable tokens : float;
  mutable refill_at : Dsim.Vtime.t;
  mutable max_depth : int;  (* high-water mailbox depth ever seen *)
}

(* Synthetic burst arrivals: fixed transfer latency (no RNG — the
   burst machinery must not perturb seeded streams) and the lowest
   possible priority, so [By_priority] sheds chaff before anything an
   application actually sent. *)
let chaff_latency = 0.02
let chaff_prio = min_int

let create config ~now =
  if config.mailbox_capacity < 0 then invalid_arg "Sim.set_overload: negative mailbox_capacity";
  if config.link_capacity < 0 then invalid_arg "Sim.set_overload: negative link_capacity";
  if Float.is_nan config.service_time || config.service_time < 0. then
    invalid_arg "Sim.set_overload: service_time must be >= 0";
  if Float.is_nan config.admit_rate || config.admit_rate < 0. then
    invalid_arg "Sim.set_overload: admit_rate must be >= 0";
  if config.admit_burst <= 0 then invalid_arg "Sim.set_overload: admit_burst must be positive";
  if Float.is_nan config.sojourn_threshold || config.sojourn_threshold < 0. then
    invalid_arg "Sim.set_overload: sojourn_threshold must be >= 0";
  {
    cfg = config;
    ordered =
      config.mailbox_capacity > 0 || config.link_capacity > 0 || config.sojourn_threshold > 0.;
    live = Hashtbl.create 256;
    mbox = Hashtbl.create 16;
    link = Hashtbl.create 64;
    by_dst = Hashtbl.create 16;
    shed_set = Hashtbl.create 64;
    bursts = Hashtbl.create 4;
    next_did = 0;
    next_gen = 0;
    tokens = float_of_int config.admit_burst;
    refill_at = now;
    max_depth = 0;
  }

let copy ov =
  let by_dst = Hashtbl.create (Int.max 16 (Hashtbl.length ov.by_dst)) in
  Hashtbl.iter (fun k l -> Hashtbl.add by_dst k (ref !l)) ov.by_dst;
  {
    ov with
    live = Hashtbl.copy ov.live;
    mbox = Hashtbl.copy ov.mbox;
    link = Hashtbl.copy ov.link;
    by_dst;
    shed_set = Hashtbl.copy ov.shed_set;
    bursts = Hashtbl.copy ov.bursts;
  }

let config ov = ov.cfg
let max_depth ov = ov.max_depth

(* Depth counts run on every delivery while the layer is on. A count
   that falls to zero keeps its key (there are at most one per node and
   one per directed pair), so the lookup neither allocates an option
   nor, after a key's first use, raises. *)
let count tbl k = match Hashtbl.find tbl k with n -> n | exception Not_found -> 0
let depth ov de = count ov.mbox de
let backlog ov = Hashtbl.fold (fun _ d acc -> Int.max d acc) ov.mbox 0
let is_shed ov did = did >= 0 && Hashtbl.mem ov.shed_set did

let pressure ov de =
  let cap = ov.cfg.mailbox_capacity in
  if cap <= 0 then 0. else Float.min 1. (float_of_int (depth ov de) /. float_of_int cap)

let service_delay ov de = float_of_int (depth ov de - 1) *. ov.cfg.service_time
let tbl_incr tbl k = Hashtbl.replace tbl k (1 + count tbl k)

let tbl_decr tbl k = match count tbl k with 0 -> () | n -> Hashtbl.replace tbl k (n - 1)

(* Oldest-first search over the destination's queue, newest-first list:
   the last live element is the oldest, so a plain replace-on-match
   fold finds the oldest ([by_prio:false]) or the oldest among the
   lowest-priority entries ([by_prio:true]), among all queued arrivals
   or only those from [src]. The list is compacted of dead dids
   in the same pass; it is only scanned when a bound is full or the
   sojourn gate asks, so it never outgrows the live queue by more than
   the dids that left since the last scan. *)
let scan ?src ov ~de ~by_prio =
  match Hashtbl.find_opt ov.by_dst de with
  | None -> None
  | Some l ->
      let best = ref None in
      l :=
        List.filter
          (fun did ->
            match Hashtbl.find_opt ov.live did with
            | None -> false
            | Some e ->
                (if match src with None -> true | Some s -> e.src = s then
                   match !best with
                   | None -> best := Some (did, e)
                   | Some (_, b) -> if (not by_prio) || e.prio <= b.prio then best := Some (did, e));
                true)
          !l;
      !best

let release ov did (e : entry) =
  Hashtbl.remove ov.live did;
  tbl_decr ov.mbox e.dst;
  tbl_decr ov.link (e.src, e.dst)

(* Enforce one bound: true = the incoming message may be enqueued
   (possibly after evicting a queued victim), false = it was shed. A
   victim is tombstoned, so its Deliver dies when it fires. *)
let check_bound ov ~on_shed ctx ~se ~de ~prio ~cap ~depth ~only_src ~cause =
  if cap <= 0 || depth < cap then true
  else
    let src = if only_src then Some se else None in
    let victim =
      match ov.cfg.shed with
      | Drop_newest -> None
      | Drop_oldest -> scan ?src ov ~de ~by_prio:false
      | By_priority -> (
          match scan ?src ov ~de ~by_prio:true with
          | Some (_, v) as victim when v.prio <= prio -> victim
          (* everything queued outranks the newcomer *)
          | Some _ | None -> None)
    in
    match victim with
    | Some (did, v) ->
        release ov did v;
        Hashtbl.replace ov.shed_set did ();
        on_shed ctx cause ~se:v.src ~de:v.dst;
        true
    | None ->
        on_shed ctx cause ~se ~de;
        false

let enqueue ov ~now ~on_shed ctx ~se ~de ~prio =
  if
    check_bound ov ~on_shed ctx ~se ~de ~prio ~cap:ov.cfg.link_capacity
      ~depth:(count ov.link (se, de)) ~only_src:true ~cause:`Link
    && check_bound ov ~on_shed ctx ~se ~de ~prio ~cap:ov.cfg.mailbox_capacity ~depth:(depth ov de)
         ~only_src:false ~cause:`Mailbox
  then begin
    let did = ov.next_did in
    ov.next_did <- did + 1;
    Hashtbl.replace ov.live did { src = se; dst = de; prio; at = now };
    tbl_incr ov.mbox de;
    tbl_incr ov.link (se, de);
    (if ov.ordered then
       match Hashtbl.find_opt ov.by_dst de with
       | Some l -> l := did :: !l
       | None -> Hashtbl.add ov.by_dst de (ref [ did ]));
    ov.max_depth <- Int.max ov.max_depth (depth ov de);
    Some did
  end
  else None

let processed ov did =
  if Hashtbl.mem ov.shed_set did then begin
    Hashtbl.remove ov.shed_set did;
    false
  end
  else begin
    (match Hashtbl.find_opt ov.live did with Some e -> release ov did e | None -> ());
    true
  end

(* Clamped: an observation that precedes the arrival must report "just
   arrived", not a negative age that defeats the sojourn gate. *)
let oldest_age ov ~de ~now =
  match scan ov ~de ~by_prio:false with
  | None -> 0.
  | Some (_, e) -> Float.max 0. (Dsim.Vtime.diff now e.at)

let admit ov ~now ~on_shed ctx ~se ~de =
  let cfg = ov.cfg in
  let rate_ok =
    if cfg.admit_rate <= 0. then true
    else begin
      (* Clamped at the source: a negative elapsed (the refill anchor
         somehow ahead of now) must not mint tokens. *)
      let dt = Float.max 0. (Dsim.Vtime.diff now ov.refill_at) in
      if dt > 0. then begin
        ov.tokens <- Float.min (float_of_int cfg.admit_burst) (ov.tokens +. (dt *. cfg.admit_rate));
        ov.refill_at <- now
      end;
      if ov.tokens >= 1. then begin
        ov.tokens <- ov.tokens -. 1.;
        true
      end
      else false
    end
  in
  if not rate_ok then begin
    on_shed ctx `Admission ~se ~de;
    false
  end
  else if cfg.sojourn_threshold > 0. && oldest_age ov ~de ~now > cfg.sojourn_threshold then begin
    on_shed ctx `Sojourn ~se ~de;
    false
  end
  else true

let start_burst ov de ~rate =
  let gen = ov.next_gen in
  ov.next_gen <- gen + 1;
  Hashtbl.replace ov.bursts de (gen, rate);
  gen

let stop_burst ov de =
  let running = Hashtbl.mem ov.bursts de in
  Hashtbl.remove ov.bursts de;
  running

let burst_rate ov de ~gen =
  match Hashtbl.find_opt ov.bursts de with Some (g, rate) when g = gen -> Some rate | Some _ | None -> None
