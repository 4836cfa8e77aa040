type profile = {
  crashes : int;
  crash_mode : Faultplan.crash_mode;
  partitions : int;
  degrades : int;
  duplicate_rate : float;
  duplicate_copies : int;
  corrupt_rate : float;
  corrupt_flip : float;
  reorder_rate : float;
  reorder_window : float;
  flaps : int;  (* flapping-partition cycles; 0 = no flap *)
  flap_period : float;  (* half-period of each cycle, seconds *)
  gray_links : int;  (* asymmetric lossy links; 0 = none *)
  gray_loss : float;  (* loss rate of each gray direction *)
  overload_nodes : int;  (* targeted injection bursts; 0 = none *)
  overload_rate : float;  (* chaff msgs per virtual second per burst *)
  overload_period : float;  (* burst duration, seconds *)
  drift_nodes : int;  (* nodes whose clocks drift for a window; 0 = none *)
  drift_rate : float;  (* max fractional drift, rate in [1-d, 1+d] *)
  clock_steps : int;  (* NTP-style step excursions; 0 = none *)
  clock_step_max : float;  (* max |offset| of each step, seconds *)
  byz_links : int;  (* byzantine directed links; 0 = mutate globally *)
  byz_rate : float;  (* per-message mutation probability; 0 = off *)
  storm : float;
  grace : float;
  protect : int list;
}

let default_profile =
  {
    crashes = 2;
    crash_mode = Faultplan.Clean;
    partitions = 1;
    degrades = 1;
    duplicate_rate = 0.08;
    duplicate_copies = 1;
    corrupt_rate = 0.05;
    corrupt_flip = 0.02;
    reorder_rate = 0.15;
    reorder_window = 0.3;
    flaps = 0;
    (* The default half-period gives the phi-accrual detector room to
       react: suspicion needs ~18.4 s of silence to enter and ~9 s of
       fresh heartbeats to drop back under the exit threshold, so
       anything much shorter flaps faster than the detector can see. *)
    flap_period = 30.;
    gray_links = 0;
    gray_loss = 0.3;
    overload_nodes = 0;
    (* Sized to actually saturate: at the soak's default service time
       (0.5 ms/queued message) the drain rate tops out well below
       2000/s, so a burst pins the mailbox at capacity and the shed
       policy — not luck — is what keeps the depth bounded. *)
    overload_rate = 2000.;
    overload_period = 2.0;
    drift_nodes = 0;
    (* 20% drift is far beyond real quartz (ppm territory) but small
       enough that timeouts misfire rather than everything detonating
       at once — the interesting regime for timeout-sensitive logic. *)
    drift_rate = 0.2;
    clock_steps = 0;
    clock_step_max = 1.0;
    byz_links = 0;
    (* Off by default: a zero rate emits no mutate events and draws
       nothing from the plan RNG, so pre-byzantine plans stay
       byte-identical. Soaks that opt in typically use 0.2-0.3 — high
       for a real adversary, but over a 6s storm that is what it takes
       to genuinely exercise validators while honest quorums still
       make progress. *)
    byz_rate = 0.;
    storm = 6.;
    grace = 8.;
    protect = [];
  }

let pp_profile ppf p =
  let mode =
    match p.crash_mode with
    | Faultplan.Clean -> ""
    | Faultplan.Amnesia -> "(amnesia)"
    | Faultplan.Torn -> "(torn)"
  in
  Format.fprintf ppf
    "{crashes=%d%s partitions=%d degrades=%d dup=%.2f corrupt=%.2f reorder=%.2f \
     flap=%dx%.0fs gray=%d@%.2f overload=%d@%.0f/s for %.1fs drift=%d@±%.0f%% \
     steps=%d@±%.1fs byz=%d@%.2f storm=%.1fs grace=%.1fs}"
    p.crashes mode p.partitions p.degrades p.duplicate_rate p.corrupt_rate p.reorder_rate
    p.flaps p.flap_period p.gray_links p.gray_loss p.overload_nodes p.overload_rate
    p.overload_period p.drift_nodes (100. *. p.drift_rate) p.clock_steps p.clock_step_max
    p.byz_links p.byz_rate p.storm p.grace

(* Fault windows open in the first 60% of the storm and always close by
   95% of it, so the storm ends with every link healed, every victim
   revived and every channel fault switched off — the grace period
   measures recovery, not leftover faults. *)
let window rng ~storm =
  let opens = Dsim.Rng.float rng (0.6 *. storm) in
  let closes = Float.min (opens +. ((0.1 +. Dsim.Rng.float rng 0.25) *. storm)) (0.95 *. storm) in
  (opens, closes)

(* A NaN rate slips through plain [< 0.] comparisons (every comparison
   with NaN is false) and would otherwise surface as a baffling error
   deep inside [Faultplan.plan] — reject it here, by name. *)
let check_finite_rate what r =
  if Float.is_nan r then invalid_arg (Printf.sprintf "Chaos.generate: %s is NaN" what);
  if r < 0. then invalid_arg (Printf.sprintf "Chaos.generate: negative %s" what)

let generate ~seed ~nodes profile =
  if nodes <= 0 then invalid_arg "Chaos.generate: no nodes";
  if profile.storm <= 0. then invalid_arg "Chaos.generate: non-positive storm";
  if profile.flaps < 0 then invalid_arg "Chaos.generate: negative flap count";
  if profile.flap_period <= 0. then invalid_arg "Chaos.generate: non-positive flap period";
  if profile.gray_links < 0 then invalid_arg "Chaos.generate: negative gray link count";
  if not (profile.gray_loss >= 0. && profile.gray_loss <= 1.) then
    invalid_arg "Chaos.generate: gray loss outside [0,1]";
  check_finite_rate "duplicate rate" profile.duplicate_rate;
  check_finite_rate "corrupt rate" profile.corrupt_rate;
  check_finite_rate "corrupt flip rate" profile.corrupt_flip;
  check_finite_rate "reorder rate" profile.reorder_rate;
  check_finite_rate "overload rate" profile.overload_rate;
  if profile.overload_nodes < 0 then
    invalid_arg "Chaos.generate: negative overload node count";
  if not (profile.overload_period > 0.) then
    invalid_arg "Chaos.generate: overload period must be positive";
  if profile.drift_nodes < 0 then invalid_arg "Chaos.generate: negative drift node count";
  (* Drift below 100%: a rate of [1 - drift_rate] must stay positive. *)
  if not (profile.drift_rate >= 0. && profile.drift_rate < 1.) then
    invalid_arg "Chaos.generate: drift rate outside [0,1)";
  if profile.clock_steps < 0 then invalid_arg "Chaos.generate: negative clock step count";
  if not (Float.is_finite profile.clock_step_max && profile.clock_step_max >= 0.) then
    invalid_arg "Chaos.generate: clock step max must be finite and non-negative";
  if profile.byz_links < 0 then invalid_arg "Chaos.generate: negative byzantine link count";
  if not (profile.byz_rate >= 0. && profile.byz_rate <= 1.) then
    invalid_arg "Chaos.generate: byzantine mutate rate outside [0,1]";
  let rng = Dsim.Rng.create seed in
  let storm = profile.storm in
  let events = ref [] in
  let add at e = events := (at, e) :: !events in
  (* Channel faults run for the whole storm. The switch-off events are
     emitted even when the rate is zero so every plan ends on a clean
     channel regardless of how it was composed. *)
  add 0.
    (Faultplan.Set_duplicate
       { rate = profile.duplicate_rate; copies = profile.duplicate_copies });
  add 0. (Faultplan.Set_corrupt { rate = profile.corrupt_rate; flip = profile.corrupt_flip });
  add 0. (Faultplan.Set_reorder { rate = profile.reorder_rate; window = profile.reorder_window });
  add storm (Faultplan.Set_duplicate { rate = 0.; copies = 1 });
  add storm (Faultplan.Set_corrupt { rate = 0.; flip = 0. });
  add storm (Faultplan.Set_reorder { rate = 0.; window = 0. });
  let all = List.init nodes Fun.id in
  (* Crashes: distinct victims (so no schedule ever restarts a node a
     concurrent window already revived), drawn outside [protect]. *)
  let eligible = List.filter (fun i -> not (List.mem i profile.protect)) all in
  let victims =
    Dsim.Rng.sample_without_replacement rng (min profile.crashes (List.length eligible)) eligible
  in
  let crash v =
    match profile.crash_mode with
    | Faultplan.Clean -> Faultplan.Kill v
    | Faultplan.Amnesia -> Faultplan.Kill_amnesia v
    | Faultplan.Torn -> Faultplan.Torn_write v
  in
  List.iter
    (fun v ->
      let opens, closes = window rng ~storm in
      add opens (crash v);
      add closes (Faultplan.Restart v))
    victims;
  (* Partition windows over the same normalized group pair must not
     overlap in time — [Faultplan.plan] now rejects a re-cut of a pair
     still open. All draws happen regardless so the schedule of every
     other fault is byte-identical whether or not a window collides;
     only colliding windows are dropped. *)
  let emitted = ref [] in
  let key a b =
    let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
    if a <= b then (a, b) else (b, a)
  in
  for _ = 1 to profile.partitions do
    let k = 1 + Dsim.Rng.int rng (max 1 (nodes / 2)) in
    let a = Dsim.Rng.sample_without_replacement rng k all in
    let b = List.filter (fun i -> not (List.mem i a)) all in
    if b <> [] then begin
      let opens, closes = window rng ~storm in
      let kab = key a b in
      let collides =
        List.exists (fun (k', o, c) -> k' = kab && opens <= c && o <= closes) !emitted
      in
      if not collides then begin
        emitted := (kab, opens, closes) :: !emitted;
        add opens (Faultplan.Partition (a, b));
        add closes (Faultplan.Heal_partition (a, b))
      end
    end
  done;
  (* Flapping partition: one event that cuts and heals [flaps] times on
     a fixed cadence, starting at the head of the storm. The cycle
     count is clamped so the flap prefers to fit inside the storm, but
     a profile that asks for flapping always gets at least one cycle
     (long-period flaps against a short storm simply outlive it; the
     event still ends healed). *)
  if profile.flaps > 0 && nodes > 1 then begin
    let k = 1 + Dsim.Rng.int rng (max 1 (nodes / 2)) in
    let a = Dsim.Rng.sample_without_replacement rng k all in
    let b = List.filter (fun i -> not (List.mem i a)) all in
    if b <> [] then begin
      let fits = int_of_float (0.95 *. storm /. (2. *. profile.flap_period)) in
      let cycles = max 1 (min profile.flaps fits) in
      add 0. (Faultplan.Flap { a; b; period = profile.flap_period; cycles })
    end
  end;
  (* Asymmetric gray failures: a directed link silently loses traffic
     for a window; the reverse direction stays clean. The distinct
     endpoint is derived from one draw, not rejection-sampled, so the
     draw count per link is fixed. *)
  if profile.gray_links > 0 && nodes > 1 then
    for _ = 1 to profile.gray_links do
      let src = Dsim.Rng.int rng nodes in
      let dst = (src + 1 + Dsim.Rng.int rng (nodes - 1)) mod nodes in
      let opens, closes = window rng ~storm in
      add opens (Faultplan.Gray_link { src; dst; loss = profile.gray_loss });
      add closes (Faultplan.Heal_gray { src; dst })
    done;
  (* Targeted injection bursts: distinct victims, each flooded for
     [overload_period] seconds (clipped to end inside the storm like
     every other window). Draws happen only when the knob is on, so a
     profile with [overload_nodes = 0] keeps the RNG stream of every
     pre-existing plan byte-identical. *)
  if profile.overload_nodes > 0 then begin
    if not (profile.overload_rate > 0.) then
      invalid_arg "Chaos.generate: overload rate must be positive";
    let victims =
      Dsim.Rng.sample_without_replacement rng (min profile.overload_nodes nodes) all
    in
    List.iter
      (fun v ->
        let opens = Dsim.Rng.float rng (0.6 *. storm) in
        let closes = Float.min (opens +. profile.overload_period) (0.95 *. storm) in
        add opens (Faultplan.Overload { node = v; rate = profile.overload_rate });
        add closes (Faultplan.Heal_overload { node = v }))
      victims
  end;
  for _ = 1 to profile.degrades do
    let endpoint = Dsim.Rng.int rng nodes in
    let latency_factor = 2. +. Dsim.Rng.float rng 6. in
    let bandwidth_factor = 0.15 +. Dsim.Rng.float rng 0.45 in
    let opens, closes = window rng ~storm in
    add opens (Faultplan.Degrade { endpoint; latency_factor; bandwidth_factor });
    add closes (Faultplan.Restore endpoint)
  done;
  (* Clock excursions: distinct drift victims each run fast or slow for
     a window, then heal; step excursions are drawn from the remaining
     nodes so every node has exactly one clock window and exactly one
     matching [Heal_clock] — the plan validator's skew discipline holds
     by construction. Draws happen only when a knob is on, so profiles
     without clock faults keep every pre-existing RNG stream
     byte-identical. *)
  let drift_victims =
    if profile.drift_nodes > 0 then begin
      let victims =
        Dsim.Rng.sample_without_replacement rng (min profile.drift_nodes nodes) all
      in
      List.iter
        (fun v ->
          let rate =
            1. -. profile.drift_rate +. Dsim.Rng.float rng (2. *. profile.drift_rate)
          in
          let opens, closes = window rng ~storm in
          add opens (Faultplan.Set_clock_rate { node = v; rate });
          add closes (Faultplan.Heal_clock { node = v }))
        victims;
      victims
    end
    else []
  in
  if profile.clock_steps > 0 then begin
    let steppable = List.filter (fun i -> not (List.mem i drift_victims)) all in
    let victims =
      Dsim.Rng.sample_without_replacement rng
        (min profile.clock_steps (List.length steppable))
        steppable
    in
    List.iter
      (fun v ->
        let offset =
          Dsim.Rng.float rng (2. *. profile.clock_step_max) -. profile.clock_step_max
        in
        let opens, closes = window rng ~storm in
        add opens (Faultplan.Clock_step { node = v; offset });
        add closes (Faultplan.Heal_clock { node = v }))
      victims
  end;
  (* Byzantine mutation, drawn after every other fault. Unlike the
     channel faults above (whose switch-offs are emitted even at zero
     rate), a zero [byz_rate] emits no events and draws nothing — the
     byte-identity discipline of the later knobs applies: pre-byzantine
     plans reproduce exactly. [byz_links = 0] mutates the global
     channel for the whole storm; a positive count picks that many
     random directed links, each with its own window, skipping (without
     extra draws) windows that would re-open a pair still mutating. *)
  if profile.byz_rate > 0. then begin
    if profile.byz_links = 0 then begin
      add 0. (Faultplan.Set_mutate { rate = profile.byz_rate; links = [] });
      add storm (Faultplan.Heal_mutate { links = [] })
    end
    else if nodes > 1 then begin
      let emitted = ref [] in
      for _ = 1 to profile.byz_links do
        let src = Dsim.Rng.int rng nodes in
        let dst = (src + 1 + Dsim.Rng.int rng (nodes - 1)) mod nodes in
        let opens, closes = window rng ~storm in
        let collides =
          List.exists
            (fun (s, d, o, c) -> s = src && d = dst && opens <= c && o <= closes)
            !emitted
        in
        if not collides then begin
          emitted := (src, dst, opens, closes) :: !emitted;
          add opens (Faultplan.Set_mutate { rate = profile.byz_rate; links = [ (src, dst) ] });
          add closes (Faultplan.Heal_mutate { links = [ (src, dst) ] })
        end
      done
    end
  end;
  Faultplan.plan !events

type outcome = {
  plan : Faultplan.t;
  violations : (Dsim.Vtime.t * string) list;
  recovered : bool;
  self_healed : bool;
  heal_time : float option;
  shed_bounded : bool;
  overload_recovered : bool;
  stats : Counters.t;
  elapsed : float;
}

module Soak (App : Proto.App_intf.APP) = struct
  module E = Sim.Make (App)
  module Exec = Faultplan.Run (E)

  let run ?reliable ?obs ~setup ~recovered ~seed ~topology profile =
    let eng = E.create ~seed ~topology () in
    (* Bursting profiles get bounded mailboxes, priority shedding and
       the circuit breaker, flapping ones reliable delivery; all off
       otherwise so seeded runs stay byte-identical. *)
    if profile.overload_nodes > 0 then begin
      E.set_overload eng ~config:{ mailbox_capacity = 64; service_time = 5e-4 };
      E.enable_breaker eng
    end;
    if Option.value reliable ~default:(profile.flaps > 0) then E.enable_reliable eng;
    Option.iter (fun sink -> E.set_obs eng (Some sink)) obs;
    setup eng;
    E.run_for eng 2.;
    (* Steady-state queue depth before any fault: the recovery verdict
       compares against this, not against zero — a busy system always
       has a few messages in flight. *)
    let baseline_backlog = E.mailbox_backlog eng in
    let plan = generate ~seed ~nodes:(Net.Topology.size topology) profile in
    let start = E.now eng in
    Exec.execute eng plan;
    (* A plan whose last event fires early still owns the full storm
       window. *)
    let spent = Dsim.Vtime.diff (E.now eng) start in
    if spent < profile.storm then E.run_for eng (profile.storm -. spent);
    let check = recovered eng in
    (* The storm is over and every fault healed; the grace period now
       doubles as the self-healing probe. Run it in slices and record
       when the last degraded node recovers — [self_healed] demands it
       stays that way to the end, not a momentary dip to zero. *)
    let grace_start = E.now eng in
    let heal_time = ref (if E.degraded_nodes eng = 0 then Some 0. else None) in
    let remaining = ref profile.grace in
    while !remaining > 0. do
      let dt = Float.min 0.25 !remaining in
      E.run_for eng dt;
      remaining := !remaining -. dt;
      match !heal_time with
      | None when E.degraded_nodes eng = 0 ->
          heal_time := Some (Dsim.Vtime.diff (E.now eng) grace_start)
      | Some _ when E.degraded_nodes eng > 0 -> heal_time := None
      | _ -> ()
    done;
    let self_healed = E.degraded_nodes eng = 0 in
    (* Overload verdicts: the high-water mark never broke the mailbox
       capacity, and the backlog drained back to the neighbourhood of
       the pre-storm steady state (doubled, to absorb timing jitter). *)
    let shed_bounded =
      match E.overload_limits eng with
      | Some { mailbox_capacity = cap; _ } when cap > 0 -> (E.stats eng).max_mailbox_depth <= cap
      | Some _ | None -> true
    in
    {
      plan;
      violations = E.violations eng;
      recovered = check ();
      self_healed;
      heal_time = (if self_healed then !heal_time else None);
      shed_bounded;
      overload_recovered = E.mailbox_backlog eng <= Int.max 2 (2 * baseline_backlog);
      stats = E.stats eng;
      elapsed = Dsim.Vtime.to_seconds (E.now eng);
    }
end
