(* Observability layer: registry semantics, causal span propagation
   through the engine's fault paths, JSON round-trips, and per-seed
   determinism of the exports. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let nid = Proto.Node_id.of_int

(* ---------- registry ---------- *)

let test_counter_interning () =
  let r = Obs.Registry.create () in
  let a = Obs.Registry.counter r ~name:"c" ~labels:[ ("node", "1"); ("kind", "x") ] in
  (* Same key, labels in a different order: must be the same series. *)
  let b = Obs.Registry.counter r ~name:"c" ~labels:[ ("kind", "x"); ("node", "1") ] in
  Obs.Registry.incr a;
  Obs.Registry.incr ~by:2 b;
  checki "shared series" 3 (Obs.Registry.counter_value a);
  checki "one series interned" 1 (Obs.Registry.cardinality r);
  let other = Obs.Registry.counter r ~name:"c" ~labels:[ ("node", "2"); ("kind", "x") ] in
  Obs.Registry.incr other;
  checki "distinct labels, distinct series" 1 (Obs.Registry.counter_value other);
  checki "two series now" 2 (Obs.Registry.cardinality r)

let test_kind_clash () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r ~name:"m" ~labels:[]);
  checkb "kind clash raises" true
    (try
       ignore (Obs.Registry.gauge r ~name:"m" ~labels:[]);
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r ~name:"depth" ~labels:[ ("node", "0") ] in
  Obs.Registry.set g 4.;
  Obs.Registry.set g 2.;
  Alcotest.check (Alcotest.float 0.) "last write wins" 2. (Obs.Registry.gauge_value g)

let member_exn key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" key (Obs.Json.to_string j)

let test_histogram_export () =
  let r = Obs.Registry.create () in
  let h =
    Obs.Registry.histogram r ~name:"lat" ~labels:[] ~lo:0. ~hi:100. ~buckets:10
  in
  List.iter (Obs.Registry.observe h) [ -5.; 10.; 50.; 150.; 99.; 100. ];
  checki "all observations counted" 6 (Obs.Registry.histogram_count h);
  match Obs.Registry.to_json r with
  | [ j ] ->
      checks "type" "histogram" (match member_exn "type" j with Str s -> s | _ -> "?");
      checki "count" 6 (match member_exn "count" j with Int n -> n | _ -> -1);
      checki "underflow" 1 (match member_exn "underflow" j with Int n -> n | _ -> -1);
      (* 150 and the exact upper bound 100 both overflow (buckets are
         half-open, [lo, hi) overall). *)
      checki "overflow" 2 (match member_exn "overflow" j with Int n -> n | _ -> -1)
  | l -> Alcotest.failf "expected 1 metric, got %d" (List.length l)

let test_volatile_excluded () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r ~name:"stable" ~labels:[]);
  ignore (Obs.Registry.gauge ~volatile:true r ~name:"wallclock" ~labels:[]);
  checki "default export hides volatile" 1 (List.length (Obs.Registry.to_json r));
  checki "opt-in export shows it" 2
    (List.length (Obs.Registry.to_json ~include_volatile:true r))

(* ---------- JSON round-trips ---------- *)

let test_span_json_roundtrip () =
  let ring = Obs.Span.ring ~capacity:8 () in
  Obs.Span.record ring ~trace:3 ~src:0 ~dst:1 ~kind:"ping" ~enqueue:0.5 ~deliver:0.75
    ~verdict:"deliver";
  match Obs.Span.spans ring with
  | [ s ] -> (
      let j = Obs.Span.to_json s in
      let line = Obs.Json.to_string j in
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok j' -> (
          checkb "json round-trip" true (Obs.Json.equal j j');
          match Obs.Span.of_json j' with
          | Error e -> Alcotest.failf "span decode failed: %s" e
          | Ok s' ->
              checkb "span round-trip" true (s = s');
              (* Rendering must be byte-stable through a parse cycle. *)
              checks "byte-stable" line (Obs.Json.to_string j')))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_metrics_json_stable () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r ~name:"c" ~labels:[ ("node", "0") ] in
  Obs.Registry.incr c;
  let h = Obs.Registry.histogram r ~name:"h" ~labels:[] ~lo:0. ~hi:10. ~buckets:2 in
  Obs.Registry.observe h 3.5;
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "metrics line unparseable (%s): %s" e line
      | Ok j -> checks "render-parse-render stable" line (Obs.Json.to_string j))
    (Obs.Registry.to_json_lines r)

let test_ring_eviction () =
  let ring = Obs.Span.ring ~capacity:2 () in
  for i = 0 to 4 do
    Obs.Span.record ring ~trace:i ~src:0 ~dst:1 ~kind:"m" ~enqueue:0. ~deliver:0.
      ~verdict:"deliver"
  done;
  checki "recorded keeps counting" 5 (Obs.Span.recorded ring);
  checki "evictions visible" 3 (Obs.Span.dropped ring);
  match Obs.Span.spans ring with
  | [ a; b ] ->
      checki "oldest retained" 3 a.Obs.Span.trace;
      checki "newest retained" 4 b.Obs.Span.trace
  | l -> Alcotest.failf "expected 2 retained spans, got %d" (List.length l)

(* The ring read back after [n] records at [capacity]: the retained
   spans, oldest first, each rebuilt field for field. Crossing the
   capacity by growth alone and by eviction must read the same. *)
let ring_span i : Obs.Span.span =
  {
    trace = i / 3;
    seq = i;
    src = i mod 5;
    dst = (i + 1) mod 5;
    kind = (if i mod 4 = 0 then "timer:tick" else "ping");
    enqueue = float_of_int i *. 0.001;
    deliver = (float_of_int i *. 0.001) +. 0.0125;
    verdict = (if i mod 7 = 0 then "drop:" ^ "loss" else "deliver");
  }

let test_ring_readback () =
  List.iter
    (fun (capacity, n) ->
      let ring = Obs.Span.ring ~capacity () in
      for i = 0 to n - 1 do
        let s = ring_span i in
        Obs.Span.record ring ~trace:s.trace ~src:s.src ~dst:s.dst ~kind:s.kind
          ~enqueue:s.enqueue ~deliver:s.deliver ~verdict:s.verdict
      done;
      let first = Stdlib.max 0 (n - capacity) in
      let expected = List.init (n - first) (fun i -> ring_span (first + i)) in
      let label = Printf.sprintf "cap %d, %d records" capacity n in
      checki (label ^ ": recorded") n (Obs.Span.recorded ring);
      checki (label ^ ": dropped") first (Obs.Span.dropped ring);
      checkb (label ^ ": spans") true (Obs.Span.spans ring = expected);
      Alcotest.(check (list string))
        (label ^ ": json lines")
        (List.map (fun s -> Obs.Json.to_string (Obs.Span.to_json s)) expected)
        (Obs.Span.to_json_lines ring))
    [ (100, 0); (100, 60); (100, 100); (100, 250); (1000, 250); (1, 3); (7, 23) ];
  let ring = Obs.Span.ring ~capacity:100 () in
  for i = 0 to 249 do
    let s = ring_span i in
    Obs.Span.record ring ~trace:s.trace ~src:s.src ~dst:s.dst ~kind:s.kind ~enqueue:s.enqueue
      ~deliver:s.deliver ~verdict:s.verdict
  done;
  match Obs.Span.to_json_lines ring with
  | first :: _ ->
      checks "oldest retained line"
        {|{"trace":50,"seq":150,"src":0,"dst":1,"kind":"ping","enqueue":0.15,"deliver":0.1625,"verdict":"deliver"}|}
        first
  | [] -> Alcotest.fail "no lines"

(* ---------- engine integration: trace propagation under faults ---------- *)

module Toy = struct
  type msg = Ping of int | Pong of int

  type state = { self : Proto.Node_id.t; pings : int; pongs : int }

  let name = "obstoy"
  let equal_state (a : state) b = a = b
  let msg_kind = function Ping _ -> "ping" | Pong _ -> "pong"
  let msg_bytes _ = 64
  let msg_codec = None
  let validate = None
  let fingerprint = None
  let durable = None
  let degraded = None
  let priority = None

  let pp_msg ppf = function
    | Ping n -> Format.fprintf ppf "ping(%d)" n
    | Pong n -> Format.fprintf ppf "pong(%d)" n

  let pp_state ppf st = Format.fprintf ppf "{pings=%d pongs=%d}" st.pings st.pongs

  let init (ctx : Proto.Ctx.t) = ({ self = ctx.self; pings = 0; pongs = 0 }, [])

  let receive =
    [
      Proto.Handler.v ~name:"ping"
        ~guard:(fun _ ~src:_ m -> match m with Ping _ -> true | Pong _ -> false)
        (fun _ st ~src m ->
          match m with
          | Ping n -> ({ st with pings = st.pings + 1 }, [ Proto.Action.send ~dst:src (Pong n) ])
          | Pong _ -> (st, []));
      Proto.Handler.v ~name:"pong"
        ~guard:(fun _ ~src:_ m -> match m with Pong _ -> true | Ping _ -> false)
        (fun _ st ~src:_ _ -> ({ st with pongs = st.pongs + 1 }, []));
    ]

  let on_timer _ctx st _id : state * msg Proto.Action.t list = (st, [])
  let properties = []
  let objectives = []
  let generic_msgs _ : (Proto.Node_id.t * msg) list = []
end

module E = Engine.Sim.Make (Toy)

let topology =
  Net.Topology.uniform ~n:2 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)

let run_pingpong ~seed =
  let sink = Obs.Sink.create () in
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_obs eng (Some sink);
  E.spawn eng (nid 0);
  E.spawn eng (nid 1);
  E.run_for eng 0.1;
  (* Force both fault paths: every message is held back (reorder) and
     ghosted once (duplicate). *)
  Net.Netem.set_faults (E.netem eng)
    {
      Net.Netem.no_faults with
      Net.Netem.duplicate_rate = 1.0;
      duplicate_copies = 1;
      reorder_rate = 1.0;
      reorder_window = 0.05;
    };
  E.inject eng ~src:(nid 0) ~dst:(nid 1) (Toy.Ping 7);
  E.run_for eng 2.0;
  (eng, sink)

let test_span_propagation () =
  let eng, sink = run_pingpong ~seed:11 in
  (match E.state_of eng (nid 0) with
  | Some st -> checkb "pong(s) arrived" true (st.Toy.pongs >= 1)
  | None -> Alcotest.fail "node 0 missing");
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let by_kind k = List.filter (fun (s : Obs.Span.span) -> String.equal s.kind k) spans in
  let pings = by_kind "ping" and pongs = by_kind "pong" in
  checkb "ping spans recorded" true (pings <> []);
  checkb "pong spans recorded" true (pongs <> []);
  checkb "duplicate verdict recorded" true
    (List.exists (fun (s : Obs.Span.span) -> String.equal s.verdict "duplicate") spans);
  checkb "reorder verdict recorded" true
    (List.exists (fun (s : Obs.Span.span) -> String.equal s.verdict "reorder") spans);
  (* One root send: every ping hop (held-back original and ghost copy)
     carries the trace minted at inject, and the pong replies — fired
     from the ping's delivery — inherit the same id.  That is the
     causal chain the layer exists to reconstruct. *)
  let root = (List.hd pings).Obs.Span.trace in
  List.iter
    (fun (s : Obs.Span.span) -> checki "ping hop shares root trace" root s.Obs.Span.trace)
    pings;
  List.iter
    (fun (s : Obs.Span.span) -> checki "pong inherits ping trace" root s.Obs.Span.trace)
    pongs

let test_engine_metrics () =
  let eng, sink = run_pingpong ~seed:11 in
  let r = sink.Obs.Sink.registry in
  let deliveries node =
    Obs.Registry.counter_value
      (Obs.Registry.counter r ~name:"engine_deliveries" ~labels:[ ("node", node) ])
  in
  (* Node 1 got the ping plus its ghost copy; node 0 got pongs back. *)
  checkb "node 1 delivered" true (deliveries "1" >= 2);
  checkb "node 0 delivered" true (deliveries "0" >= 1);
  checkb "per-link latency histogram populated" true
    (Obs.Registry.histogram_count
       (Obs.Registry.histogram r ~name:"engine_delivery_latency_ms"
          ~labels:[ ("src", "0"); ("dst", "1") ]
          ~lo:0. ~hi:2000. ~buckets:20)
     >= 1);
  (* Every stats field is exported, read from the engine's counters. *)
  let exported name =
    List.find_map
      (fun j ->
        match (Obs.Json.member "name" j, Obs.Json.member "value" j) with
        | Some (Obs.Json.Str n), Some (Obs.Json.Int v) when String.equal n name -> Some v
        | _ -> None)
      (Obs.Registry.to_json r)
  in
  let s = E.stats eng in
  checkb "engine_messages_delivered is the stats field" true
    (exported "engine_messages_delivered" = Some s.messages_delivered);
  checkb "engine_messages_duplicated is the stats field" true
    (exported "engine_messages_duplicated" = Some s.messages_duplicated);
  checkb "engine_events_processed is the stats field" true
    (exported "engine_events_processed" = Some s.events_processed)

let test_export_deterministic () =
  let _, s1 = run_pingpong ~seed:42 in
  let _, s2 = run_pingpong ~seed:42 in
  let _, s3 = run_pingpong ~seed:43 in
  Alcotest.check (Alcotest.list Alcotest.string) "metrics byte-identical per seed"
    (Obs.Registry.to_json_lines s1.Obs.Sink.registry)
    (Obs.Registry.to_json_lines s2.Obs.Sink.registry);
  Alcotest.check (Alcotest.list Alcotest.string) "spans byte-identical per seed"
    (Obs.Span.to_json_lines s1.Obs.Sink.spans)
    (Obs.Span.to_json_lines s2.Obs.Sink.spans);
  checkb "different seed, different spans" true
    (Obs.Span.to_json_lines s1.Obs.Sink.spans
    <> Obs.Span.to_json_lines s3.Obs.Sink.spans)

(* ---------- sink files ---------- *)

let test_validate_file () =
  let _, sink = run_pingpong ~seed:7 in
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let written = Obs.Sink.write_metrics sink ~path in
      (match Obs.Sink.validate_file path with
      | Ok n -> checki "validates what was written" written n
      | Error e -> Alcotest.failf "valid file rejected: %s" e);
      (* An empty file must fail the check — that is what CI relies on. *)
      let oc = open_out path in
      close_out oc;
      match Obs.Sink.validate_file path with
      | Ok _ -> Alcotest.fail "empty file accepted"
      | Error _ -> ());
  let garbled = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove garbled)
    (fun () ->
      let oc = open_out garbled in
      output_string oc "{\"type\":\"counter\"}\nnot json at all\n";
      close_out oc;
      match Obs.Sink.validate_file garbled with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error _ -> ())

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter interning" `Quick test_counter_interning;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram export" `Quick test_histogram_export;
          Alcotest.test_case "volatile excluded" `Quick test_volatile_excluded;
        ] );
      ( "json",
        [
          Alcotest.test_case "span round-trip" `Quick test_span_json_roundtrip;
          Alcotest.test_case "metrics lines stable" `Quick test_metrics_json_stable;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "ring read-back" `Quick test_ring_readback;
        ] );
      ( "engine",
        [
          Alcotest.test_case "span propagation under faults" `Quick test_span_propagation;
          Alcotest.test_case "engine metrics" `Quick test_engine_metrics;
          Alcotest.test_case "deterministic export" `Quick test_export_deterministic;
        ] );
      ( "sink",
        [ Alcotest.test_case "validate file" `Quick test_validate_file ] );
    ]
