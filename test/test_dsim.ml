(* Unit and property tests for the discrete-event substrate. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------- Vtime ---------- *)

let test_vtime_roundtrip () =
  checkf "seconds" 1.5 Dsim.Vtime.(to_seconds (of_seconds 1.5));
  checkf "ms" 1500. Dsim.Vtime.(to_ms (of_seconds 1.5));
  checkf "of_ms" 0.25 Dsim.Vtime.(to_seconds (of_ms 250.))

let test_vtime_add_diff () =
  let t = Dsim.Vtime.of_seconds 2. in
  let u = Dsim.Vtime.add t 3. in
  checkf "add" 5. (Dsim.Vtime.to_seconds u);
  checkf "diff" 3. (Dsim.Vtime.diff u t);
  checkf "diff-neg" (-3.) (Dsim.Vtime.diff t u)

let test_vtime_ordering () =
  let a = Dsim.Vtime.of_seconds 1. and b = Dsim.Vtime.of_seconds 2. in
  checkb "lt" true Dsim.Vtime.(a < b);
  checkb "le-eq" true Dsim.Vtime.(a <= a);
  checkb "not-lt" false Dsim.Vtime.(b < a);
  checkf "min" 1. (Dsim.Vtime.to_seconds (Dsim.Vtime.min a b));
  checkf "max" 2. (Dsim.Vtime.to_seconds (Dsim.Vtime.max a b))

let test_vtime_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Vtime.of_seconds: negative") (fun () ->
      ignore (Dsim.Vtime.of_seconds (-1.)));
  Alcotest.check_raises "nan" (Invalid_argument "Vtime.of_seconds: not finite") (fun () ->
      ignore (Dsim.Vtime.of_seconds Float.nan));
  Alcotest.check_raises "neg-add" (Invalid_argument "Vtime.add: negative delta") (fun () ->
      ignore (Dsim.Vtime.add Dsim.Vtime.zero (-0.1)))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Dsim.Rng.create 7 and b = Dsim.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Dsim.Rng.bits64 a) (Dsim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Dsim.Rng.create 1 and b = Dsim.Rng.create 2 in
  checkb "different streams" false (Dsim.Rng.bits64 a = Dsim.Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Dsim.Rng.create 3 in
  let b = Dsim.Rng.copy a in
  let xa = Dsim.Rng.bits64 a in
  let xb = Dsim.Rng.bits64 b in
  check Alcotest.int64 "copy continues identically" xa xb;
  ignore (Dsim.Rng.bits64 a);
  let ya = Dsim.Rng.bits64 a and yb = Dsim.Rng.bits64 b in
  checkb "desynchronised after extra draw" false (ya = yb)

let test_rng_split_independent () =
  let parent = Dsim.Rng.create 11 in
  let child = Dsim.Rng.split parent in
  let xs = List.init 32 (fun _ -> Dsim.Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Dsim.Rng.bits64 child) in
  checkb "streams differ" false (xs = ys)

(* The first 64 outputs of each draw, from a fresh generator, from a
   copy taken after three draws (which must replay the original), and
   from both sides of a split, digested per (seed, draw). [int] cycles
   through bounds that reject often (just above 2^61) and never
   (max_int). Recorded from the boxed-state generator, so a change of
   representation must keep every stream. *)
let rng_draws =
  let ints = [| 7; 1000; (1 lsl 61) + 3; max_int |] in
  [
    ("bits64", fun g i -> ignore i; Printf.sprintf "%Lx" (Dsim.Rng.bits64 g));
    ("int", fun g i -> string_of_int (Dsim.Rng.int g ints.(i mod 4)));
    ("uniform", fun g _ -> Printf.sprintf "%h" (Dsim.Rng.uniform g));
    ("float", fun g _ -> Printf.sprintf "%h" (Dsim.Rng.float g 10.));
    ("bool", fun g _ -> string_of_bool (Dsim.Rng.bool g));
  ]

let rng_pins =
  [
    ( 1,
      [
        ("bits64", "23dd76a6662d9b0633c7f9528671c76a");
        ("int", "926844e8f855a2865357e3cb4b3080b7");
        ("uniform", "f6e8ec93f34f83ecec71d3a93ce95cb2");
        ("float", "135fe3d0c4ebb8f1e872de2ad437eba7");
        ("bool", "02ea0a2c6a5c10ec32bf72a3d701db77");
      ] );
    ( 42,
      [
        ("bits64", "1e8a8f703b302dc6f3e0828a1a3f000a");
        ("int", "57022c7d058369378ba98ca649f185f7");
        ("uniform", "f2947d3636de1954e4df35ef0d9b0a24");
        ("float", "cab2c9ddf5b72a3a590f793ad984e178");
        ("bool", "364764575da19e576b10068b7bcf043b");
      ] );
    ( 1_000_003,
      [
        ("bits64", "9668bcd640359e5dc7e9afcc7ba51628");
        ("int", "97f6dc7b72bf7f355c401dd03aa6488d");
        ("uniform", "4258673e8eb63473a3ba9b4f9775a2c5");
        ("float", "0e63eaad7f7494143b741fed7909c94e");
        ("bool", "6000e1e05b116d41dd77b7e7738cbfdd");
      ] );
  ]

let test_rng_streams_pinned () =
  let first64 draw g = String.concat " " (List.init 64 (draw g)) in
  List.iter
    (fun (seed, pins) ->
      List.iter
        (fun (name, draw) ->
          let fresh = first64 draw (Dsim.Rng.create seed) in
          let orig = Dsim.Rng.create seed in
          for _ = 1 to 3 do
            ignore (Dsim.Rng.bits64 orig)
          done;
          let copy = first64 draw (Dsim.Rng.copy orig) in
          Alcotest.check Alcotest.string "copy replays the original" copy (first64 draw orig);
          let parent = Dsim.Rng.create seed in
          let child = first64 draw (Dsim.Rng.split parent) in
          let rest = first64 draw parent in
          let got = Digest.to_hex (Digest.string (String.concat "|" [ fresh; copy; child; rest ])) in
          Alcotest.check Alcotest.string (Printf.sprintf "seed %d %s" seed name)
            (List.assoc name pins) got)
        rng_draws)
    rng_pins

let test_rng_int_bounds () =
  let rng = Dsim.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Dsim.Rng.int rng 7 in
    checkb "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dsim.Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Dsim.Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Dsim.Rng.uniform rng in
    checkb "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_pick_and_shuffle () =
  let rng = Dsim.Rng.create 13 in
  let xs = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 50 do
    checkb "pick member" true (List.mem (Dsim.Rng.pick rng xs) xs)
  done;
  let shuffled = Dsim.Rng.shuffle rng xs in
  checki "same length" (List.length xs) (List.length shuffled);
  check (Alcotest.list Alcotest.int) "same multiset" (List.sort compare xs)
    (List.sort compare shuffled);
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty") (fun () ->
      ignore (Dsim.Rng.pick rng []))

let test_rng_sample () =
  let rng = Dsim.Rng.create 17 in
  let xs = List.init 10 Fun.id in
  let s = Dsim.Rng.sample_without_replacement rng 4 xs in
  checki "k elements" 4 (List.length s);
  checki "distinct" 4 (List.length (List.sort_uniq compare s));
  let all = Dsim.Rng.sample_without_replacement rng 99 xs in
  checki "clamped to population" 10 (List.length all)

let test_rng_exponential_mean () =
  let rng = Dsim.Rng.create 23 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dsim.Rng.exponential rng 2.0
  done;
  let mean = !total /. float_of_int n in
  checkb "mean near 2.0" true (Float.abs (mean -. 2.0) < 0.1)

(* ---------- Event queue ---------- *)

(* Integer elements keyed by their own value. *)
let push_int q x = Dsim.Event_queue.push q (float_of_int x) x
let drain_values q = List.map snd (Dsim.Event_queue.drain q)

let test_heap_ordering () =
  let h = Dsim.Event_queue.create () in
  List.iter (push_int h) [ 5; 3; 8; 1; 9; 2 ];
  check (Alcotest.list Alcotest.int) "sorted drain" [ 1; 2; 3; 5; 8; 9 ] (drain_values h);
  checkb "empty after drain" true (Dsim.Event_queue.is_empty h)

let test_heap_fifo_ties () =
  (* Elements with equal keys must pop in insertion order. *)
  let h = Dsim.Event_queue.create () in
  List.iter
    (fun (k, v) -> Dsim.Event_queue.push h (float_of_int k) v)
    [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) Alcotest.string))
    "fifo ties"
    [ (0., "z"); (1., "a"); (1., "b"); (1., "c") ]
    (Dsim.Event_queue.drain h)

let test_heap_peek_pop () =
  let h = Dsim.Event_queue.create () in
  checkb "min key of empty" true (Dsim.Event_queue.min_key h = infinity);
  Alcotest.check_raises "pop empty" (Invalid_argument "Event_queue.pop: empty") (fun () ->
      ignore (Dsim.Event_queue.pop h));
  push_int h 4;
  checkf "min key" 4. (Dsim.Event_queue.min_key h);
  checki "length" 1 (Dsim.Event_queue.length h);
  checki "pop" 4 (Dsim.Event_queue.pop h);
  checkb "empty after pop" true (Dsim.Event_queue.is_empty h)

let test_heap_copy_independent () =
  let h = Dsim.Event_queue.create () in
  List.iter (push_int h) [ 3; 1; 2 ];
  let c = Dsim.Event_queue.copy h in
  ignore (Dsim.Event_queue.pop h);
  push_int h 0;
  checki "copy unaffected" 3 (Dsim.Event_queue.length c);
  check (Alcotest.list Alcotest.int) "copy drains fully" [ 1; 2; 3 ] (drain_values c);
  check (Alcotest.list Alcotest.int) "original drains its own" [ 0; 2; 3 ] (drain_values h)

(* A pinned push/pop sequence with tied instants: keys take five
   values, so most pushes tie with earlier ones. The expected lists were
   recorded from the comparator heap this queue replaced; they pin the
   pop order (FIFO among ties) and the backing layout [rev_fold] walks. *)
let pinned_key i = float_of_int (i * 7 mod 5) /. 4.

let test_heap_pinned_order () =
  let h = Dsim.Event_queue.create () in
  let pops = ref [] and layout = ref [] in
  for i = 0 to 59 do
    Dsim.Event_queue.push h (pinned_key i) i;
    if i mod 3 = 2 then pops := Dsim.Event_queue.pop h :: !pops;
    if i = 40 then layout := Dsim.Event_queue.rev_fold h ~init:[] ~f:(fun acc v -> v :: acc)
  done;
  let ints = Alcotest.list Alcotest.int in
  check ints "pop order"
    [ 0; 5; 3; 10; 8; 15; 20; 13; 25; 18; 30; 35; 23; 40; 28; 45; 50; 33; 55; 38 ]
    (List.rev !pops);
  check ints "rev_fold layout"
    [ 40; 33; 28; 6; 31; 1; 38; 11; 26; 4; 2; 36; 16; 21; 9; 22; 24; 12; 27; 29; 14; 32; 17; 7;
      34; 37; 39; 19 ]
    !layout;
  check ints "drain order"
    [ 43; 48; 53; 58; 1; 6; 11; 16; 21; 26; 31; 36; 41; 46; 51; 56; 4; 9; 14; 19; 24; 29; 34; 39;
      44; 49; 54; 59; 2; 7; 12; 17; 22; 27; 32; 37; 42; 47; 52; 57 ]
    (drain_values h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      (* Large ints can share a float key; those must drain in push
         order, which is exactly a stable sort by key. *)
      let keyed = List.map (fun x -> (float_of_int x, x)) xs in
      let h = Dsim.Event_queue.create () in
      List.iter (fun (k, x) -> Dsim.Event_queue.push h k x) keyed;
      Dsim.Event_queue.drain h
      = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed)

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Dsim.Event_queue.create () in
      let popped = ref 0 in
      List.iteri
        (fun i x ->
          push_int h x;
          if i mod 3 = 2 then begin
            ignore (Dsim.Event_queue.pop h);
            incr popped
          end)
        xs;
      Dsim.Event_queue.length h = List.length xs - !popped)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = Dsim.Stats.create () in
  List.iter (Dsim.Stats.add s) [ 1.; 2.; 3.; 4. ];
  checki "count" 4 (Dsim.Stats.count s);
  checkf "mean" 2.5 (Dsim.Stats.mean s);
  checkf "sum" 10. (Dsim.Stats.sum s);
  checkf "min" 1. (Dsim.Stats.min s);
  checkf "max" 4. (Dsim.Stats.max s);
  checkf "median" 2.5 (Dsim.Stats.median s)

let test_stats_percentile () =
  let s = Dsim.Stats.create () in
  List.iter (Dsim.Stats.add s) (List.init 101 float_of_int);
  checkf "p0" 0. (Dsim.Stats.percentile s 0.);
  checkf "p50" 50. (Dsim.Stats.percentile s 50.);
  checkf "p100" 100. (Dsim.Stats.percentile s 100.);
  checkf "p25" 25. (Dsim.Stats.percentile s 25.)

let test_stats_variance () =
  let s = Dsim.Stats.create () in
  List.iter (Dsim.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checkf "variance" 4. (Dsim.Stats.variance s);
  checkf "stddev" 2. (Dsim.Stats.stddev s)

let test_stats_empty () =
  let s = Dsim.Stats.create () in
  checkf "mean empty" 0. (Dsim.Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: empty") (fun () ->
      ignore (Dsim.Stats.min s))

let test_stats_merge () =
  let a = Dsim.Stats.create () and b = Dsim.Stats.create () in
  Dsim.Stats.add a 1.;
  Dsim.Stats.add b 3.;
  let m = Dsim.Stats.merge a b in
  checki "merged count" 2 (Dsim.Stats.count m);
  checkf "merged mean" 2. (Dsim.Stats.mean m)

let test_histogram () =
  let h = Dsim.Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:5 in
  List.iter (Dsim.Stats.Histogram.add h) [ 0.5; 1.; 3.; 9.9; 42.; -1. ];
  let counts = Dsim.Stats.Histogram.counts h in
  (* Out-of-range samples no longer pollute the edge buckets: they are
     counted separately, and [total] still sees every observation. *)
  checki "bucket0" 2 counts.(0);
  checki "bucket4" 1 counts.(4);
  checki "underflow" 1 (Dsim.Stats.Histogram.underflow h);
  checki "overflow" 1 (Dsim.Stats.Histogram.overflow h);
  checki "total" 6 (Dsim.Stats.Histogram.total h);
  let lo, hi = Dsim.Stats.Histogram.bucket_bounds h 1 in
  checkf "bounds lo" 2. lo;
  checkf "bounds hi" 4. hi

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_histogram_pp_shows_outliers () =
  let h = Dsim.Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:2 in
  List.iter (Dsim.Stats.Histogram.add h) [ -1.; 5.; 99. ];
  let s = Format.asprintf "%a" Dsim.Stats.Histogram.pp h in
  checkb "pp mentions underflow" true (contains s "underflow");
  checkb "pp mentions overflow" true (contains s "overflow")

let test_stats_sort_cache () =
  (* The regression this guards: percentile used to re-sort per query,
     so summarising a 100k-sample series cost a sort per percentile.
     The sorted view is now cached until the next mutation. *)
  let s = Dsim.Stats.create () in
  for i = 1 to 100_000 do
    Dsim.Stats.add s (float_of_int (i * 7919 mod 100_000))
  done;
  checki "no sort before a query" 0 (Dsim.Stats.sorts_performed s);
  ignore (Format.asprintf "%a" Dsim.Stats.pp_summary s);
  checki "summary costs one sort" 1 (Dsim.Stats.sorts_performed s);
  ignore (Dsim.Stats.percentile s 99.);
  ignore (Dsim.Stats.median s);
  checki "queries reuse the cache" 1 (Dsim.Stats.sorts_performed s);
  Dsim.Stats.add s 1.;
  ignore (Dsim.Stats.percentile s 50.);
  checki "mutation invalidates" 2 (Dsim.Stats.sorts_performed s)

let test_stats_reservoir () =
  let s = Dsim.Stats.create ~capacity:100 () in
  for i = 1 to 10_000 do
    Dsim.Stats.add s (float_of_int i)
  done;
  checki "count sees everything" 10_000 (Dsim.Stats.count s);
  checki "retention is bounded" 100 (Dsim.Stats.retained s);
  (* Exact aggregates are unaffected by sampling. *)
  checkf "sum exact" 50_005_000. (Dsim.Stats.sum s);
  checkf "min exact" 1. (Dsim.Stats.min s);
  checkf "max exact" 10_000. (Dsim.Stats.max s);
  (* Without a capacity, nothing is ever evicted. *)
  let u = Dsim.Stats.create () in
  for i = 1 to 10_000 do
    Dsim.Stats.add u (float_of_int i)
  done;
  checki "unbounded retains all" 10_000 (Dsim.Stats.retained u);
  Alcotest.check (Alcotest.float 1e-6) "unbounded percentile exact" 9900.01
    (Dsim.Stats.percentile u 99.)

let test_stats_reservoir_deterministic () =
  let fill seed =
    let s = Dsim.Stats.create ~capacity:64 ~seed () in
    for i = 1 to 5_000 do
      Dsim.Stats.add s (float_of_int (i * 31 mod 5_000))
    done;
    Dsim.Stats.to_list s
  in
  check (Alcotest.list (Alcotest.float 0.)) "same seed, same reservoir" (fill 9) (fill 9);
  checkb "different seed, different reservoir" true (fill 9 <> fill 10)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Dsim.Stats.create () in
      List.iter (Dsim.Stats.add s) xs;
      let m = Dsim.Stats.mean s in
      m >= Dsim.Stats.min s -. 1e-9 && m <= Dsim.Stats.max s +. 1e-9)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dsim"
    [
      ( "vtime",
        [
          Alcotest.test_case "roundtrip" `Quick test_vtime_roundtrip;
          Alcotest.test_case "add/diff" `Quick test_vtime_add_diff;
          Alcotest.test_case "ordering" `Quick test_vtime_ordering;
          Alcotest.test_case "invalid" `Quick test_vtime_invalid;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "streams pinned" `Quick test_rng_streams_pinned;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_and_shuffle;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties
        :: Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop
        :: Alcotest.test_case "copy" `Quick test_heap_copy_independent
        :: Alcotest.test_case "pinned order" `Quick test_heap_pinned_order
        :: qcheck [ prop_heap_sorts; prop_heap_length ] );
      ( "stats",
        Alcotest.test_case "basic" `Quick test_stats_basic
        :: Alcotest.test_case "percentile" `Quick test_stats_percentile
        :: Alcotest.test_case "variance" `Quick test_stats_variance
        :: Alcotest.test_case "empty" `Quick test_stats_empty
        :: Alcotest.test_case "merge" `Quick test_stats_merge
        :: Alcotest.test_case "histogram" `Quick test_histogram
        :: Alcotest.test_case "histogram outliers in pp" `Quick test_histogram_pp_shows_outliers
        :: Alcotest.test_case "sort cache" `Quick test_stats_sort_cache
        :: Alcotest.test_case "reservoir" `Quick test_stats_reservoir
        :: Alcotest.test_case "reservoir determinism" `Quick test_stats_reservoir_deterministic
        :: qcheck [ prop_stats_mean_bounded ] );
    ]
