(* The benchmark's measuring program.

     bench --workload NAME --seed N --seconds S --trace 0|1 [--reference]

   One repetition of a workload builds its deployment (timed as
   set-up) and runs a fixed amount of virtual time (timed as the run).
   Repetition [i] draws its inputs from its own seed, derived from
   [--seed] and [i], so a run measures a stream of distinct inputs and
   its medians do not rest on one draw. The program repeats until [S]
   seconds have passed, prints a report, and ends with one JSON line.
   With [--trace 0] the line holds the end-to-end metrics of untraced
   repetitions. With [--trace 1] every repetition runs twice, untraced
   then traced, the two must agree on every counter, and the line holds
   the per-layer metrics of the traced runs. [--reference] also runs
   the library's own soak for kv-storm and checks it matches. Traced
   runs write their retained spans under [.perfbench_out/]. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference : bool;
}

let spans_dir = ".perfbench_out"

let usage msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--reference]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let reference = ref false in
  let int_of flag v = match int_of_string_opt v with Some n -> n | None -> usage (flag ^ ": not an integer") in
  let rec go = function
    | [] -> ()
    | "--reference" :: rest ->
        reference := true;
        go rest
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_of "--seconds" v));
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          Some
            (match v with "0" -> false | "1" -> true | _ -> usage "--trace takes 0 or 1");
        go rest
    | flag :: _ -> usage ("unknown or incomplete argument " ^ flag)
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> usage ("missing " ^ name) in
  let seed = need "--seed" !seed and seconds = need "--seconds" !seconds in
  if seed < 0 then usage "--seed must be non-negative";
  if seconds < 1. then usage "--seconds must be at least 1";
  {
    workload = need "--workload" !workload;
    seed;
    seconds;
    trace = need "--trace" !trace;
    reference = !reference;
  }

(* ---------- statistics ---------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ---------- repetitions ---------- *)

type rep = {
  seed : int;  (** the deployment seed *)
  setup_ns : int;
  wall_ns : int;
  self_sum_ns : int;  (** traced runs: self time of every span the run closed *)
  r : Workloads.result;
  decisions : int list;  (** host ns of each outermost [Ctx.choose] *)
}

let run_rep (w : Workloads.t) ~seed ~traced =
  Gc.full_major ();
  Tracer.mode := if w.decides then Choices else Off;
  Tracer.decisions := [];
  let t0 = Tracer.now_ns () in
  let run = w.prepare ~seed in
  let t1 = Tracer.now_ns () in
  if traced then Tracer.mode := Full;
  let self0 = Array.fold_left ( + ) 0 Tracer.self_ns in
  let r = Tracer.span Rep run in
  let t2 = Tracer.now_ns () in
  Tracer.mode := Off;
  {
    seed;
    setup_ns = t1 - t0;
    wall_ns = t2 - t1;
    self_sum_ns = Array.fold_left ( + ) 0 Tracer.self_ns - self0;
    r;
    decisions = !Tracer.decisions;
  }

(* Set-ups without a run, so the set-up median rests on more samples
   than there are repetitions. *)
let extra_setups = 20

(* ---------- metrics ---------- *)

let meters_total (r : Workloads.result) =
  List.fold_left
    (fun (ns, ev) m ->
      List.fold_left (fun (ns, ev) (h, e) -> (ns + h, ev + e)) (ns, ev) (Meter.seconds m))
    (0, 0) r.meters

let late_ns_per_event (r : Workloads.result) =
  let ns, ev =
    List.fold_left
      (fun (ns, ev) m ->
        let n, e = Meter.late m in
        (ns + n, ev + e))
      (0, 0) r.meters
  in
  ratio (fi ns) (fi ev)

(* Host ms of each virtual second that did any work. *)
let vsec_ms (r : Workloads.result) =
  sorted
    (List.concat_map
       (fun m -> List.filter_map (fun (h, _) -> if h > 0 then Some (fi h /. 1e6) else None) (Meter.seconds m))
       r.meters)

let assoc_f k l = match List.assoc_opt k l with Some v -> v | None -> 0.

(* Worlds explored per second of host time spent in runtime ticks. *)
let worlds_per_s rep = ratio (assoc_f "mc.worlds" rep.r.layer) (fi rep.r.tick_ns /. 1e9)

(* One end-to-end metric: name, value, unit, sample count. *)
type metric = { name : string; value : float; unit_ : string; n : int }

let m name value unit_ n = { name; value; unit_; n }

let end_to_end ~setups ~heap_words (ur : rep list) =
  let nr = List.length ur in
  let med f = median (List.map f ur) in
  let ns_per_event rep =
    let ns, ev = meters_total rep.r in
    ratio (fi ns) (fi ev)
  in
  let ns_per_delivery rep =
    let ns, _ = meters_total rep.r in
    ratio (fi ns) (fi rep.r.deliveries)
  in
  let vsec = sorted (List.concat_map (fun rep -> Array.to_list (vsec_ms rep.r)) ur) in
  let nsec = Array.length vsec in
  [
    m "setup_s" (median (List.map (fun ns -> fi ns /. 1e9) setups)) "s" (List.length setups);
    m "wall_s" (med (fun rep -> fi rep.wall_ns /. 1e9)) "s" nr;
    m "max_heap_mb" (fi (heap_words * (Sys.word_size / 8)) /. 1048576.) "MB" 1;
    m "ns_per_event" (med ns_per_event) "ns" nr;
    m "ns_per_event_late" (med (fun rep -> late_ns_per_event rep.r)) "ns" nr;
    m "ns_per_delivery" (med ns_per_delivery) "ns" nr;
    m "vsec_ms_p50" (percentile vsec 50.) "ms" nsec;
    m "vsec_ms_p95" (percentile vsec 95.) "ms" nsec;
  ]

(* The workload-specific figures, printed with the report but not part
   of the result line: each applies to one workload only. *)
let workload_figures (w : Workloads.t) (ur : rep list) =
  let first = (List.hd ur).r in
  let ms l = sorted (List.map (fun s -> s *. 1000.) l) in
  let failed_frac =
    ratio (fi (first.attempted - first.completed)) (fi first.attempted)
  in
  let common = [ m "failed_frac" failed_frac "ratio" first.attempted ] in
  let pct name a p unit_ = m name (percentile a p) unit_ (Array.length a) in
  match w.name with
  | "paxos-steady" ->
      let c = ms first.lat_a in
      common @ [ pct "commit_ms_p50" c 50. "ms(virtual)"; pct "commit_ms_p99" c 99. "ms(virtual)" ]
  | "kv-storm" ->
      common
      @ [
          pct "read_ms_p99" (ms first.lat_a) 99. "ms(virtual)";
          pct "write_ms_p99" (ms first.lat_b) 99. "ms(virtual)";
        ]
  | "predict" ->
      let steer = sorted (List.concat_map (fun rep -> List.map (fun ns -> fi ns /. 1e6) rep.r.steer_ns) ur) in
      let decide = sorted (List.concat_map (fun rep -> List.map (fun ns -> fi ns /. 1e6) rep.decisions) ur) in
      common
      @ [
          pct "steer_ms_p50" steer 50. "ms";
          pct "steer_ms_p99" steer 99. "ms";
          pct "decide_ms_p50" decide 50. "ms";
          pct "decide_ms_p99" decide 99. "ms";
          m "worlds_per_s" (median (List.map worlds_per_s ur)) "1/s" (List.length ur);
        ]
  | _ -> common

let per_layer (tr : rep list) (ur : rep list) =
  let nt = fi (List.length tr) in
  let r1 = (List.hd tr).r in
  let events = fi (List.fold_left (fun acc rep -> acc + rep.r.events) 0 tr) in
  let deliveries = fi (List.fold_left (fun acc rep -> acc + rep.r.deliveries) 0 tr) in
  let calls k = fi (Tracer.calls_of k) and self k = fi (Tracer.self_of k) in
  let per_rep x = x /. nt in
  let layer k = assoc_f k r1.layer in
  let decisions = List.concat_map (fun rep -> rep.decisions) tr in
  let cached = layer "mc.outcomes_cached" in
  let lookups = cached +. per_rep (fi !Tracer.tick_evals) in
  let wall rep = fi rep.wall_ns /. 1e9 in
  let overhead = median (List.map2 (fun u t -> ratio (wall t) (wall u) -. 1.) ur tr) in
  let unaccounted = median (List.map (fun t -> ratio (fi (t.wall_ns - t.self_sum_ns)) (fi t.wall_ns)) tr) in
  let count name v = (name, v, "count") and ns name v = (name, v, "ns") in
  [
    count "engine.events" (per_rep events);
    count "engine.deliveries" (per_rep deliveries);
    ns "engine.self_ns_per_event" (ratio (self Run_for) events);
    count "engine.forks" (layer "engine.forks");
    count "apps.handle_calls" (per_rep (calls Handle));
    ns "apps.handle_ns_per_call" (ratio (self Handle) (calls Handle));
    count "apps.guard_calls" (per_rep (calls Guard));
    ns "apps.guard_ns_per_call" (ratio (self Guard) (calls Guard));
    count "apps.timer_calls" (per_rep (calls Timer));
    ns "apps.timer_ns_per_call" (ratio (self Timer) (calls Timer));
    count "property.checks" (per_rep (calls Holds));
    ("property.checks_per_event", ratio (calls Holds) events, "ratio");
    ns "property.ns_per_check" (ratio (self Holds) (calls Holds));
    count "durability.log_calls" (per_rep (calls Log));
    ns "durability.log_ns_per_call" (ratio (self Log) (calls Log));
    ("durability.records_per_call", ratio (fi !Tracer.log_records) (calls Log), "ratio");
    ("durability.record_bytes", ratio (fi !Tracer.log_bytes) (fi !Tracer.log_records), "B");
    count "durability.replay_calls" (per_rep (calls Replay));
    count "durability.restore_calls" (per_rep (calls Restore));
    count "validate.calls" (per_rep (calls Validate));
    ns "validate.ns_per_call" (ratio (self Validate) (calls Validate));
    count "validate.rejects" (per_rep (fi !Tracer.validate_rejects));
  ]
  @ List.map (fun k -> count k (layer k)) [ "store.wal_appends"; "store.snapshots"; "store.recoveries" ]
  @ [ ("store.bytes_written", layer "store.bytes_written", "B") ]
  @ List.map
      (fun k -> count k (layer k))
      [
        "net.dropped"; "net.duplicated"; "net.corrupted"; "net.reordered"; "net.retransmits";
        "net.acked"; "net.giveups"; "net.fd_recoveries"; "net.degraded_entries";
        "choice.decisions";
      ]
  @ [
      ns "choice.ns_per_decision"
        (ratio (fi (List.fold_left ( + ) 0 decisions)) (fi (List.length decisions)));
      ("choice.forks_per_decision", ratio (layer "engine.forks") (layer "choice.decisions"), "ratio");
      count "mc.worlds" (layer "mc.worlds");
      count "mc.outcomes_cached" cached;
      count "mc.cache_lookups" lookups;
      ("mc.cache_hit_ratio", ratio cached lookups, "ratio");
      count "mc.fingerprint_calls" (per_rep (calls Fingerprint));
      ns "mc.fingerprint_ns_per_call" (ratio (self Fingerprint) (calls Fingerprint));
      ("mc.worlds_per_s", median (List.map worlds_per_s ur), "1/s");
    ]
  @ List.map
      (fun k -> count k (layer k))
      [
        "crystal.ticks"; "crystal.checkpoints"; "crystal.rounds"; "crystal.vetoes";
        "crystal.cannot_steer";
      ]
  @ [ ("crystal.checkpoint_bytes", layer "crystal.checkpoint_bytes", "B") ]
  @ List.map (fun k -> count k (layer k)) [ "obs.spans"; "obs.span_evictions"; "obs.metric_series" ]
  @ List.map (fun l -> (l ^ ".self_s", per_rep (fi (Tracer.self_of_layer l)) /. 1e9, "s")) Tracer.layers
  @ [
      ("trace.wall_s", median (List.map wall tr), "s");
      ("trace.overhead", overhead, "ratio");
      ("trace.unaccounted", unaccounted, "ratio");
    ]

(* ---------- output ---------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let print_metric x =
  Printf.printf "  %-26s %16.6f %-12s n=%d\n" x.name x.value x.unit_ x.n

let print_layer_table (tr : rep list) =
  let nt = fi (List.length tr) in
  let wall = List.fold_left (fun acc rep -> acc +. (fi rep.wall_ns /. 1e9)) 0. tr /. nt in
  Printf.printf "per-layer self time (traced, mean per repetition):\n";
  Printf.printf "  %-12s %12s %8s\n" "layer" "self_s" "share";
  List.iter
    (fun l ->
      let s = fi (Tracer.self_of_layer l) /. nt /. 1e9 in
      Printf.printf "  %-12s %12.6f %7.1f%%\n" l s (100. *. ratio s wall))
    Tracer.layers;
  let sum = fi (Array.fold_left ( + ) 0 Tracer.self_ns) /. nt /. 1e9 in
  Printf.printf "  %-12s %12.6f %7.1f%%  (traced wall %.6f s)\n" "sum" sum (100. *. ratio sum wall) wall

let () =
  let args = parse_args () in
  let w =
    match Workloads.find args.workload with
    | Some w -> w
    | None -> usage ("unknown workload " ^ args.workload)
  in
  let start = Unix.gettimeofday () in
  let setups =
    List.init extra_setups (fun _ ->
        let t0 = Tracer.now_ns () in
        let (_ : unit -> Workloads.result) = w.prepare ~seed:(w.deployment_seed args.seed 0) in
        Tracer.now_ns () - t0)
  in
  Tracer.reset ();
  let untraced = ref [] and traced = ref [] and heap_words = ref 0 in
  let i = ref 0 in
  while !i < 2 || Unix.gettimeofday () -. start < args.seconds do
    let seed = w.deployment_seed args.seed !i in
    let untraced_run () = untraced := run_rep w ~seed ~traced:false :: !untraced in
    let traced_run () = traced := run_rep w ~seed ~traced:true :: !traced in
    (* In traced runs the two halves of a pair take turns going first,
       so neither side of the overhead always meets a warmer heap. *)
    if args.trace && !i mod 2 = 1 then begin
      traced_run ();
      untraced_run ()
    end
    else begin
      untraced_run ();
      (* The high-water mark after the first repetition: the allocation
         sequence up to there is fixed by the seed. *)
      if !i = 0 then heap_words := (Gc.quick_stat ()).top_heap_words;
      if args.trace then traced_run ()
    end;
    incr i
  done;
  let ur = List.rev !untraced and tr = List.rev !traced in
  let all = ur @ tr in
  (* Correctness. *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let first = (List.hd ur).r in
  List.iter
    (fun rep ->
      if rep.r.violations > 0 then problem "seed %d: %d safety violations" rep.seed rep.r.violations;
      List.iter
        (fun (name, ok) -> if not ok then problem "seed %d: check failed: %s" rep.seed name)
        rep.r.checks)
    all;
  (* Traced runs: each repetition ran twice. *)
  if args.trace then
    List.iter2
      (fun u t ->
        List.iter2
          (fun (name, a) (_, b) ->
            if a <> b then problem "seed %d: %s untraced %d, traced %d" u.seed name a b)
          u.r.counters t.r.counters)
      ur tr;
  if args.reference && String.equal w.name "kv-storm" then begin
    let check_of name = Bool.to_int (List.assoc name first.checks) in
    let mine =
      [
        ("violations", first.violations);
        ("messages_delivered", List.assoc "messages_delivered" first.counters);
        ("messages_dropped", int_of_float (assoc_f "net.dropped" first.layer));
        ("retransmits", int_of_float (assoc_f "net.retransmits" first.layer));
        ("recovered", check_of "recovered");
        ("self_healed", check_of "self_healed");
      ]
    in
    List.iter2
      (fun (name, a) (_, b) ->
        if a <> b then problem "reference soak disagrees on %s: timed %d, library %d" name a b)
      mine (Workloads.reference_kv ~seed:(w.deployment_seed args.seed 0));
    Printf.printf "reference soak: %s\n" (if !problems = [] then "matches" else "DIFFERS")
  end;
  let e2e =
    end_to_end ~setups:(setups @ List.map (fun rep -> rep.setup_ns) ur) ~heap_words:!heap_words ur
  in
  List.iter (fun x -> if not (Float.is_finite x.value && x.value > 0.) then problem "%s is not positive" x.name) e2e;
  let attempted = List.fold_left (fun acc rep -> acc + rep.r.attempted) 0 all in
  let failed = List.fold_left (fun acc rep -> acc + rep.r.violations) 0 all in
  (* Report. *)
  Printf.printf "workload %s  seed %d  repetitions: %d untraced, %d traced\n" w.name args.seed
    (List.length ur) (List.length tr);
  Printf.printf "  first repetition: attempted %d, completed %d\n" first.attempted first.completed;
  Printf.printf "  untraced repetitions, wall s:";
  List.iter (fun rep -> Printf.printf " %.3f" (fi rep.wall_ns /. 1e9)) ur;
  print_newline ();
  Printf.printf "end-to-end (untraced; host time unless marked virtual):\n";
  List.iter print_metric e2e;
  List.iter print_metric (workload_figures w ur);
  let metrics =
    if args.trace then begin
      print_layer_table tr;
      let pl = per_layer tr ur in
      Printf.printf "per-layer metrics (traced):\n";
      List.iter (fun (name, v, u) -> Printf.printf "  %-30s %18.6f %s\n" name v u) pl;
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         let path =
           Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" w.name args.seed)
         in
         let n = Tracer.write_spans path in
         Printf.printf "wrote %d spans to %s\n" n path
       with Sys_error e -> problem "cannot write spans: %s" e);
      pl
    end
    else List.map (fun x -> (x.name, x.value, x.unit_)) e2e
  in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
