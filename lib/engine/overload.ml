type config = { mailbox_capacity : int; service_time : float }

let default = { mailbox_capacity = 0; service_time = 0. }

type entry = { dst : int; prio : int }

type t = {
  cfg : config;
  ordered : bool;
      (* whether [by_dst] is kept: only a bound's victim scan reads it,
         so without a bound it is never built and an idle layer retains
         nothing per delivery *)
  live : (int, entry) Hashtbl.t;  (* did -> queued arrival *)
  mbox : (int, int) Hashtbl.t;  (* dst -> live depth, kept at 0 *)
  by_dst : (int, int list ref) Hashtbl.t;
      (* dst -> dids newest-first; compacted by every scan *)
  shed_set : (int, unit) Hashtbl.t;
      (* tombstones: dids shed while queued, consumed when their
         Deliver fires (the heap has no keyed removal) *)
  bursts : (int, int * float) Hashtbl.t;  (* dst -> (generation, rate) *)
  mutable next_did : int;
  mutable next_gen : int;
  mutable max_depth : int;  (* high-water mailbox depth ever seen *)
}

(* Synthetic burst arrivals: fixed transfer latency (no RNG — the
   burst machinery must not perturb seeded streams) and the lowest
   possible priority, so eviction sheds chaff before anything an
   application actually sent. *)
let chaff_latency = 0.02
let chaff_prio = min_int

let create config =
  if config.mailbox_capacity < 0 then invalid_arg "Sim.set_overload: negative mailbox_capacity";
  if Float.is_nan config.service_time || config.service_time < 0. then
    invalid_arg "Sim.set_overload: service_time must be >= 0";
  {
    cfg = config;
    ordered = config.mailbox_capacity > 0;
    live = Hashtbl.create 256;
    mbox = Hashtbl.create 16;
    by_dst = Hashtbl.create 16;
    shed_set = Hashtbl.create 64;
    bursts = Hashtbl.create 4;
    next_did = 0;
    next_gen = 0;
    max_depth = 0;
  }

let copy ov =
  let by_dst = Hashtbl.create (Int.max 16 (Hashtbl.length ov.by_dst)) in
  Hashtbl.iter (fun k l -> Hashtbl.add by_dst k (ref !l)) ov.by_dst;
  {
    ov with
    live = Hashtbl.copy ov.live;
    mbox = Hashtbl.copy ov.mbox;
    by_dst;
    shed_set = Hashtbl.copy ov.shed_set;
    bursts = Hashtbl.copy ov.bursts;
  }

let config ov = ov.cfg
let max_depth ov = ov.max_depth

(* Depth counts run on every delivery while the layer is on. A count
   that falls to zero keeps its key (there is at most one per node), so
   the lookup neither allocates an option nor, after a key's first use,
   raises. *)
let depth ov de = match Hashtbl.find ov.mbox de with n -> n | exception Not_found -> 0
let backlog ov = Hashtbl.fold (fun _ d acc -> Int.max d acc) ov.mbox 0
let is_shed ov did = did >= 0 && Hashtbl.mem ov.shed_set did

let pressure ov de =
  let cap = ov.cfg.mailbox_capacity in
  if cap <= 0 then 0. else Float.min 1. (float_of_int (depth ov de) /. float_of_int cap)

let service_delay ov de = float_of_int (depth ov de - 1) *. ov.cfg.service_time

(* The eviction victim at a full mailbox: the oldest among the
   lowest-priority arrivals queued there. The list is newest-first, so
   a replace-on-match fold keeps the last, oldest, of the lowest rank.
   The list is compacted of dead dids in the same pass; it is only
   scanned when the bound is full, so it never outgrows the live queue
   by more than the dids that left since the last scan. *)
let victim ov de =
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
                (match !best with
                | Some (_, b) when e.prio > b.prio -> ()
                | Some _ | None -> best := Some (did, e));
                true)
          !l;
      !best

let release ov did (e : entry) =
  Hashtbl.remove ov.live did;
  match depth ov e.dst with 0 -> () | n -> Hashtbl.replace ov.mbox e.dst (n - 1)

(* Enforce the mailbox bound: true = the incoming message may be
   enqueued (possibly after evicting a queued victim), false = it was
   shed. A victim is tombstoned, so its Deliver dies when it fires. *)
let admit_bounded ov ~on_shed ctx ~de ~prio =
  let cap = ov.cfg.mailbox_capacity in
  if cap <= 0 || depth ov de < cap then true
  else
    match victim ov de with
    | Some (did, v) when v.prio <= prio ->
        release ov did v;
        Hashtbl.replace ov.shed_set did ();
        on_shed ctx;
        true
    (* everything queued outranks the newcomer *)
    | Some _ | None ->
        on_shed ctx;
        false

let enqueue ov ~on_shed ctx ~de ~prio =
  if admit_bounded ov ~on_shed ctx ~de ~prio then begin
    let did = ov.next_did in
    ov.next_did <- did + 1;
    Hashtbl.replace ov.live did { dst = de; prio };
    let d = depth ov de + 1 in
    Hashtbl.replace ov.mbox de d;
    (if ov.ordered then
       match Hashtbl.find_opt ov.by_dst de with
       | Some l -> l := did :: !l
       | None -> Hashtbl.add ov.by_dst de (ref [ did ]));
    ov.max_depth <- Int.max ov.max_depth d;
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

let start_burst ov de ~rate =
  let gen = ov.next_gen in
  ov.next_gen <- gen + 1;
  Hashtbl.replace ov.bursts de (gen, rate);
  gen

let stop_burst ov de = Hashtbl.remove ov.bursts de

let burst_rate ov de ~gen =
  match Hashtbl.find_opt ov.bursts de with Some (g, rate) when g = gen -> Some rate | Some _ | None -> None
