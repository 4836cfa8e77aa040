(* Unit and property tests for the network substrate. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf3 = Alcotest.check (Alcotest.float 1e-3)

let prop ~latency ~bandwidth ~loss = Net.Linkprop.v ~latency ~bandwidth ~loss

(* ---------- Linkprop ---------- *)

let test_linkprop_compose () =
  let a = prop ~latency:0.01 ~bandwidth:1000. ~loss:0.1 in
  let b = prop ~latency:0.02 ~bandwidth:500. ~loss:0.2 in
  let c = Net.Linkprop.compose a b in
  checkf "latency adds" 0.03 c.Net.Linkprop.latency;
  checkf "bandwidth bottleneck" 500. c.Net.Linkprop.bandwidth;
  checkf3 "loss composes" (1. -. (0.9 *. 0.8)) c.Net.Linkprop.loss

let test_linkprop_transfer_time () =
  let p = prop ~latency:0.1 ~bandwidth:1000. ~loss:0. in
  checkf "prop + tx" 0.6 (Net.Linkprop.transfer_time p ~bytes:500)

let test_linkprop_invalid () =
  Alcotest.check_raises "neg latency" (Invalid_argument "Linkprop.v: negative latency")
    (fun () -> ignore (prop ~latency:(-1.) ~bandwidth:1. ~loss:0.));
  Alcotest.check_raises "zero bw" (Invalid_argument "Linkprop.v: bandwidth must be positive")
    (fun () -> ignore (prop ~latency:0. ~bandwidth:0. ~loss:0.));
  Alcotest.check_raises "loss range" (Invalid_argument "Linkprop.v: loss out of [0,1]")
    (fun () -> ignore (prop ~latency:0. ~bandwidth:1. ~loss:1.5))

let prop_compose_assoc_latency =
  QCheck.Test.make ~name:"compose latency is associative" ~count:200
    QCheck.(triple (float_bound_exclusive 1.) (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (a, b, c) ->
      let p x = prop ~latency:x ~bandwidth:1000. ~loss:0. in
      let left = Net.Linkprop.compose (Net.Linkprop.compose (p a) (p b)) (p c) in
      let right = Net.Linkprop.compose (p a) (Net.Linkprop.compose (p b) (p c)) in
      Float.abs (left.Net.Linkprop.latency -. right.Net.Linkprop.latency) < 1e-9)

(* ---------- Topology ---------- *)

let test_topology_uniform () =
  let t = Net.Topology.uniform ~n:4 (prop ~latency:0.01 ~bandwidth:100. ~loss:0.) in
  checki "size" 4 (Net.Topology.size t);
  checkf "self ideal" 0. (Net.Topology.path t 2 2).Net.Linkprop.latency;
  checkf "pair" 0.01 (Net.Topology.path t 0 3).Net.Linkprop.latency;
  Alcotest.check_raises "oob" (Invalid_argument "Topology.path: dst out of range") (fun () ->
      ignore (Net.Topology.path t 0 9))

let test_topology_star () =
  let hub_spoke = prop ~latency:0.01 ~bandwidth:100. ~loss:0. in
  let t = Net.Topology.star ~n:5 ~hub_spoke in
  checkf "hub-spoke" 0.01 (Net.Topology.path t 0 3).Net.Linkprop.latency;
  checkf "spoke-spoke relays" 0.02 (Net.Topology.path t 1 3).Net.Linkprop.latency

let test_topology_matrix () =
  let p01 = prop ~latency:0.001 ~bandwidth:10. ~loss:0. in
  let p10 = prop ~latency:0.002 ~bandwidth:20. ~loss:0. in
  let m = [| [| Net.Linkprop.ideal; p01 |]; [| p10; Net.Linkprop.ideal |] |] in
  let t = Net.Topology.of_matrix m in
  checkf "asymmetric a->b" 0.001 (Net.Topology.path t 0 1).Net.Linkprop.latency;
  checkf "asymmetric b->a" 0.002 (Net.Topology.path t 1 0).Net.Linkprop.latency

let ts_params =
  {
    Net.Topology.default_transit_stub with
    Net.Topology.transits = 3;
    stubs_per_transit = 2;
    clients_per_stub = 2;
  }

let test_transit_stub_structure () =
  let t = Net.Topology.transit_stub ts_params in
  checki "size" 12 (Net.Topology.size t);
  (* Same stub is cheaper than cross-transit. *)
  let local = (Net.Topology.path t 0 1).Net.Linkprop.latency in
  let far = (Net.Topology.path t 0 11).Net.Linkprop.latency in
  checkb "locality" true (local < far);
  checkb "stub map" true (Net.Topology.stub_of ts_params 3 = 1)

let test_transit_stub_jitter_deterministic () =
  let mk seed =
    Net.Topology.transit_stub ~jitter_rng:(Dsim.Rng.create seed) ts_params
  in
  let a = mk 1 and b = mk 1 and c = mk 2 in
  checkf "same seed same latency" (Net.Topology.path a 0 5).Net.Linkprop.latency
    (Net.Topology.path b 0 5).Net.Linkprop.latency;
  checkb "different seed differs" true
    ((Net.Topology.path a 0 5).Net.Linkprop.latency
    <> (Net.Topology.path c 0 5).Net.Linkprop.latency)

(* The transit-stub path as computed before pairs were memoised, kept
   verbatim apart from names: the oracle for the memo. *)
let direct_transit_stub_path ?jitter_rng (p : Net.Topology.transit_stub_params) =
  let open Net.Topology in
  let stub_of p endpoint =
    let per_stub = p.clients_per_stub in
    endpoint / per_stub
  in
  let transit_of p endpoint = stub_of p endpoint / p.stubs_per_transit in
  let salt =
    match jitter_rng with
    | None -> 0
    | Some rng -> Int64.to_int (Int64.logand (Dsim.Rng.bits64 rng) 0x3FFFFFFFL)
  in
  let jitter base key =
    match jitter_rng with
    | None -> base
    | Some _ ->
        let local = Dsim.Rng.create (key + salt) in
        base *. (0.8 +. (0.4 *. Dsim.Rng.uniform local))
  in
  let ring_hops a b =
    let d = abs (a - b) in
    min d (p.transits - d)
  in
  let module Linkprop = Net.Linkprop in
  let path a b =
    let sa = stub_of p a and sb = stub_of p b in
    let ta = transit_of p a and tb = transit_of p b in
    let key = (a * 1_000_003) + b in
    let access = Linkprop.v ~latency:(jitter p.client_stub_latency key) ~bandwidth:p.client_bandwidth ~loss:p.loss in
    if sa = sb then
      Linkprop.compose access
        (Linkprop.v ~latency:(jitter p.client_stub_latency (key + 1)) ~bandwidth:p.client_bandwidth ~loss:p.loss)
    else
      let up = Linkprop.v ~latency:(jitter p.stub_transit_latency (key + 2)) ~bandwidth:p.core_bandwidth ~loss:0. in
      let hops = if ta = tb then 0 else ring_hops ta tb in
      let backbone =
        Linkprop.v
          ~latency:(jitter (float_of_int (max hops 1) *. p.transit_transit_latency) (key + 3))
          ~bandwidth:p.core_bandwidth ~loss:0.
      in
      let backbone = if ta = tb then Linkprop.v ~latency:0.0005 ~bandwidth:p.core_bandwidth ~loss:0. else backbone in
      let down = Linkprop.v ~latency:(jitter p.stub_transit_latency (key + 4)) ~bandwidth:p.core_bandwidth ~loss:0. in
      let access_b =
        Linkprop.v ~latency:(jitter p.client_stub_latency (key + 5)) ~bandwidth:p.client_bandwidth ~loss:p.loss
      in
      List.fold_left Linkprop.compose access [ up; backbone; down; access_b ]
  in
  path

(* Every pair, asked in three orders (so each answer is computed once
   and then served from the memo twice), equals the direct computation,
   for several salts and without jitter. *)
let test_transit_stub_memo () =
  let lossy = { ts_params with Net.Topology.loss = 0.01 } in
  List.iter
    (fun (what, params) ->
      List.iter
        (fun seed ->
          let rng () = Option.map Dsim.Rng.create seed in
          let t = Net.Topology.transit_stub ?jitter_rng:(rng ()) params in
          let direct = direct_transit_stub_path ?jitter_rng:(rng ()) params in
          let n = Net.Topology.size t in
          let pairs = List.concat_map (fun a -> List.init n (fun b -> (a, b))) (List.init n Fun.id) in
          let shuffled = Dsim.Rng.shuffle (Dsim.Rng.create 7) pairs in
          List.iter
            (fun (a, b) ->
              let expected = if a = b then Net.Linkprop.ideal else direct a b in
              if not (Net.Linkprop.equal expected (Net.Topology.path t a b)) then
                Alcotest.failf "%s, seed %s: path %d->%d differs" what
                  (match seed with None -> "none" | Some s -> string_of_int s)
                  a b)
            (shuffled @ pairs @ List.rev pairs))
        [ None; Some 1; Some 2; Some 42; Some 1_000_003 ])
    [ ("12 endpoints", ts_params); ("12 lossy endpoints", lossy); ("default", Net.Topology.default_transit_stub) ]

let test_topology_degrade () =
  let t = Net.Topology.uniform ~n:3 (prop ~latency:0.01 ~bandwidth:100. ~loss:0.) in
  let slow =
    Net.Topology.degrade t (fun a _ p ->
        if a = 0 then Net.Linkprop.v ~latency:(p.Net.Linkprop.latency *. 10.) ~bandwidth:p.Net.Linkprop.bandwidth ~loss:p.Net.Linkprop.loss
        else p)
  in
  checkf "degraded" 0.1 (Net.Topology.path slow 0 1).Net.Linkprop.latency;
  checkf "untouched" 0.01 (Net.Topology.path slow 1 2).Net.Linkprop.latency

let test_waxman_total () =
  let rng = Dsim.Rng.create 5 in
  let t = Net.Topology.random_waxman ~rng ~n:10 () in
  for a = 0 to 9 do
    for b = 0 to 9 do
      let p = Net.Topology.path t a b in
      checkb "finite latency" true (Float.is_finite p.Net.Linkprop.latency)
    done
  done

let prop_transit_stub_symmetric_locality =
  QCheck.Test.make ~name:"transit-stub: intra-stub cheaper than inter-transit" ~count:50
    QCheck.(pair (int_bound 1) (int_bound 1))
    (fun (i, j) ->
      let t = Net.Topology.transit_stub ts_params in
      let intra = (Net.Topology.path t i j).Net.Linkprop.latency in
      let inter = (Net.Topology.path t i (10 + j)).Net.Linkprop.latency in
      i = j || intra < inter)

(* ---------- Netem ---------- *)

let mk_netem ?(jitter = 0.) ?(serialize_access = false) () =
  Net.Netem.create ~jitter ~serialize_access ~rng:(Dsim.Rng.create 3)
    (Net.Topology.uniform ~n:4 (prop ~latency:0.01 ~bandwidth:1000. ~loss:0.))

let test_netem_deliver () =
  let nem = mk_netem () in
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:1000 with
  | Net.Netem.Deliver -> checkf "prop + tx" 1.01 (Net.Netem.delay nem)
  | _ -> Alcotest.fail "unexpected verdict");
  ()

let test_netem_loss () =
  let nem =
    Net.Netem.create ~jitter:0. ~rng:(Dsim.Rng.create 3)
      (Net.Topology.uniform ~n:2 (prop ~latency:0.01 ~bandwidth:1000. ~loss:1.))
  in
  match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Drop cause -> Alcotest.check Alcotest.string "cause" "loss" cause
  | _ -> Alcotest.fail "expected drop"

let test_netem_cut_heal () =
  let nem = mk_netem () in
  Net.Netem.cut nem ~src:0 ~dst:1;
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Drop _ -> ()
  | _ -> Alcotest.fail "cut link delivered");
  (match Net.Netem.judge nem ~now:0. ~src:1 ~dst:0 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "reverse direction should work");
  Net.Netem.heal nem ~src:0 ~dst:1;
  match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "healed link dropped"

let test_netem_isolate () =
  let nem = mk_netem () in
  Net.Netem.isolate nem 2;
  checkb "isolated" true (Net.Netem.is_isolated nem 2);
  (match Net.Netem.judge nem ~now:0. ~src:3 ~dst:2 ~bytes:10 with
  | Net.Netem.Drop _ -> ()
  | _ -> Alcotest.fail "message reached isolated node");
  Net.Netem.rejoin nem 2;
  checkb "rejoined" false (Net.Netem.is_isolated nem 2)

let test_netem_override () =
  let nem = mk_netem () in
  Net.Netem.set_override nem ~src:0 ~dst:1 (prop ~latency:0.5 ~bandwidth:1000. ~loss:0.);
  checkf "override path" 0.5 (Net.Netem.path nem ~src:0 ~dst:1).Net.Linkprop.latency;
  Net.Netem.clear_override nem ~src:0 ~dst:1;
  checkf "cleared" 0.01 (Net.Netem.path nem ~src:0 ~dst:1).Net.Linkprop.latency

(* Overrides are a layer over the topology, never a mutation of it: any
   sequence of cut / degrade ending in heal leaves the pair exactly
   where it started. *)
let prop_cut_degrade_heal_roundtrip =
  QCheck.Test.make ~name:"cut -> degrade -> heal restores the exact path" ~count:100
    QCheck.(triple (int_bound 3) (int_bound 3) (float_range 1.5 20.))
    (fun (src, dst, factor) ->
      QCheck.assume (src <> dst);
      let nem = mk_netem () in
      let base = Net.Netem.path nem ~src ~dst in
      Net.Netem.cut nem ~src ~dst;
      Net.Netem.set_override nem ~src ~dst
        (prop
           ~latency:(base.Net.Linkprop.latency *. factor)
           ~bandwidth:(base.Net.Linkprop.bandwidth /. factor)
           ~loss:base.Net.Linkprop.loss);
      Net.Netem.heal nem ~src ~dst;
      let back = Net.Netem.path nem ~src ~dst in
      back.Net.Linkprop.latency = base.Net.Linkprop.latency
      && back.Net.Linkprop.bandwidth = base.Net.Linkprop.bandwidth
      && back.Net.Linkprop.loss = base.Net.Linkprop.loss)

let test_netem_duplicate_verdict () =
  let nem = mk_netem () in
  Net.Netem.set_faults nem
    { Net.Netem.no_faults with Net.Netem.duplicate_rate = 1.; duplicate_copies = 2 };
  match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Duplicate delays ->
      checki "original + copies" 3 (List.length delays);
      checkb "copies arrive no earlier" true
        (List.for_all (fun d -> d >= List.hd delays) delays)
  | _ -> Alcotest.fail "expected duplicate verdict"

let test_netem_corrupt_verdict () =
  let nem = mk_netem () in
  Net.Netem.set_faults nem
    { Net.Netem.no_faults with Net.Netem.corrupt_rate = 1.; corrupt_flip = 0.5 };
  match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Corrupt { flip } ->
      checkf "flip rate carried" 0.5 flip;
      checkb "positive delay" true (Net.Netem.delay nem > 0.)
  | _ -> Alcotest.fail "expected corrupt verdict"

let test_netem_pair_faults () =
  let nem = mk_netem () in
  Net.Netem.set_pair_faults nem ~src:0 ~dst:1
    { Net.Netem.no_faults with Net.Netem.corrupt_rate = 1. };
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Corrupt _ -> ()
  | _ -> Alcotest.fail "pair fault ignored");
  (match Net.Netem.judge nem ~now:0. ~src:2 ~dst:3 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "pair fault leaked to other pairs");
  Net.Netem.clear_pair_faults nem ~src:0 ~dst:1;
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "cleared pair fault still active");
  (* A pair pinned to [no_faults] itself keeps it under a faulty
     global profile. *)
  Net.Netem.set_faults nem { Net.Netem.no_faults with Net.Netem.corrupt_rate = 1. };
  Net.Netem.set_pair_faults nem ~src:0 ~dst:1 Net.Netem.no_faults;
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "pair pinned to no_faults took the global profile");
  match Net.Netem.judge nem ~now:0. ~src:1 ~dst:0 ~bytes:10 with
  | Net.Netem.Corrupt _ -> ()
  | _ -> Alcotest.fail "global profile ignored"

let test_netem_faults_validated () =
  Alcotest.check_raises "rate outside [0,1]"
    (Invalid_argument "Netem: duplicate_rate 1.5 outside [0,1]") (fun () ->
      Net.Netem.set_faults (mk_netem ())
        { Net.Netem.no_faults with Net.Netem.duplicate_rate = 1.5 })

let test_netem_serialization () =
  let nem = mk_netem ~serialize_access:true () in
  (* Two back-to-back 1000-byte sends at t=0 on a 1000 B/s uplink: the
     second queues behind the first. *)
  let d1 =
    match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:1000 with
    | Net.Netem.Deliver -> Net.Netem.delay nem
    | _ -> Alcotest.fail "drop"
  in
  let d2 =
    match Net.Netem.judge nem ~now:0. ~src:0 ~dst:2 ~bytes:1000 with
    | Net.Netem.Deliver -> Net.Netem.delay nem
    | _ -> Alcotest.fail "drop"
  in
  checkf "first unqueued" 1.01 d1;
  checkf "second queued behind first" 2.01 d2

let test_netem_copy_independent () =
  let nem = mk_netem () in
  let c = Net.Netem.copy nem in
  Net.Netem.cut nem ~src:0 ~dst:1;
  match Net.Netem.judge c ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Deliver -> ()
  | _ -> Alcotest.fail "copy shares override table"

(* Every mutator on a copy stays on the copy, both ways round: the
   original keeps its isolation, overrides, pair faults and access-link
   queues. *)
let test_netem_copy_mutators () =
  let topo = Net.Topology.uniform ~n:4 (prop ~latency:0.01 ~bandwidth:1000. ~loss:0.) in
  let nem = Net.Netem.create ~jitter:0. ~rng:(Dsim.Rng.create 1) topo in
  Net.Netem.isolate nem 3;
  Net.Netem.cut nem ~src:1 ~dst:0;
  let c = Net.Netem.copy nem in
  Net.Netem.isolate c 2;
  Net.Netem.rejoin c 3;
  Net.Netem.cut c ~src:0 ~dst:1;
  Net.Netem.heal c ~src:1 ~dst:0;
  Net.Netem.set_pair_faults c ~src:1 ~dst:0 { Net.Netem.no_faults with duplicate_rate = 1. };
  ignore (Net.Netem.judge c ~now:0. ~src:0 ~dst:3 ~bytes:5000);
  checkb "copy isolation stays on the copy" false (Net.Netem.is_isolated nem 2);
  checkb "copy rejoin stays on the copy" true (Net.Netem.is_isolated nem 3);
  checkf "copy cut stays on the copy" 0. (Net.Netem.path nem ~src:0 ~dst:1).Net.Linkprop.loss;
  checkf "copy heal stays on the copy" 1. (Net.Netem.path nem ~src:1 ~dst:0).Net.Linkprop.loss;
  checkb "copy pair faults stay on the copy" true
    (Net.Netem.faults_of nem ~src:1 ~dst:0 = Net.Netem.no_faults);
  (* 5000 bytes at 1000 B/s hold the copy's 0 -> 3 uplink for 5 s; the
     original's link is still free. *)
  (match Net.Netem.judge nem ~now:0. ~src:0 ~dst:1 ~bytes:10 with
  | Net.Netem.Deliver -> checkf "original access links unqueued" 0.02 (Net.Netem.delay nem)
  | _ -> Alcotest.fail "original judged the pair faulty");
  checkb "copy sees its own isolation" true (Net.Netem.is_isolated c 2);
  checkb "copy sees its own rejoin" false (Net.Netem.is_isolated c 3);
  checkf "copy sees its own cut" 1. (Net.Netem.path c ~src:0 ~dst:1).Net.Linkprop.loss;
  checkf "copy sees its own heal" 0. (Net.Netem.path c ~src:1 ~dst:0).Net.Linkprop.loss;
  checkf "copy sees its pair faults" 1.
    (Net.Netem.faults_of c ~src:1 ~dst:0).Net.Netem.duplicate_rate

(* Pair state is keyed by [src * size + dst], so an endpoint outside
   the topology is refused rather than aliased onto another pair. *)
let test_netem_endpoint_range () =
  let nem = mk_netem () in
  let out_of_range = Invalid_argument "Netem: endpoint out of range" in
  Alcotest.check_raises "override" out_of_range (fun () -> Net.Netem.cut nem ~src:0 ~dst:4);
  Alcotest.check_raises "pair faults" out_of_range (fun () ->
      Net.Netem.set_pair_faults nem ~src:(-1) ~dst:1 Net.Netem.no_faults);
  Alcotest.check_raises "isolate" out_of_range (fun () -> Net.Netem.isolate nem 4);
  checkb "no pair aliased" true
    ((Net.Netem.path nem ~src:1 ~dst:0).Net.Linkprop.loss = 0.
    && Net.Netem.faults_of nem ~src:0 ~dst:4 = Net.Netem.no_faults
    && not (Net.Netem.is_isolated nem 4))

(* ---------- Netmodel ---------- *)

let vt = Dsim.Vtime.of_seconds

let test_netmodel_latency_estimate () =
  let m = Net.Netmodel.create ~alpha:0.5 () in
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 1.) 0.1;
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 2.) 0.2;
  let e = Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt 2.) in
  checkf3 "ewma" 0.15 e.Net.Netmodel.value;
  checki "samples" 2 e.Net.Netmodel.samples;
  checkf "fresh confidence" 1. e.Net.Netmodel.confidence

let test_netmodel_confidence_decay () =
  let m = Net.Netmodel.create ~half_life:10. () in
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 0.) 0.1;
  let e = Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt 10.) in
  checkf3 "half life" 0.5 e.Net.Netmodel.confidence;
  let e20 = Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt 20.) in
  checkf3 "two half lives" 0.25 e20.Net.Netmodel.confidence

let test_netmodel_unknown () =
  let m = Net.Netmodel.create () in
  let e = Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt 0.) in
  checki "no samples" 0 e.Net.Netmodel.samples;
  checkf "no confidence" 0. e.Net.Netmodel.confidence;
  checkb "no path prediction" true (Net.Netmodel.predict_path m ~src:0 ~dst:1 ~now:(vt 0.) = None)

let test_netmodel_predict_transfer () =
  let m = Net.Netmodel.create () in
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 1.) 0.1;
  Net.Netmodel.observe_bandwidth m ~src:0 ~dst:1 (vt 1.) 1000.;
  (match Net.Netmodel.predict_transfer_time m ~src:0 ~dst:1 ~now:(vt 1.) ~bytes:1000 with
  | Some t -> checkf3 "prop + tx" 1.1 t
  | None -> Alcotest.fail "expected prediction");
  (* Loss inflates the expectation by expected retries. *)
  Net.Netmodel.observe_loss m ~src:0 ~dst:1 (vt 1.) ~delivered:false;
  match Net.Netmodel.predict_transfer_time m ~src:0 ~dst:1 ~now:(vt 1.) ~bytes:1000 with
  | Some t -> checkb "retries inflate" true (t > 1.1)
  | None -> Alcotest.fail "expected prediction"

let test_netmodel_forget () =
  let m = Net.Netmodel.create () in
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 1.) 0.1;
  Net.Netmodel.observe_latency m ~src:2 ~dst:3 (vt 5.) 0.1;
  Net.Netmodel.forget_before m (vt 3.);
  checki "one pair left" 1 (List.length (Net.Netmodel.known_pairs m))

let test_netmodel_merge () =
  let a = Net.Netmodel.create () and b = Net.Netmodel.create () in
  Net.Netmodel.observe_latency a ~src:0 ~dst:1 (vt 0.) 0.5;
  Net.Netmodel.observe_latency b ~src:0 ~dst:1 (vt 9.) 0.1;
  Net.Netmodel.observe_latency b ~src:5 ~dst:6 (vt 9.) 0.2;
  Net.Netmodel.merge_from a b ~now:(vt 10.);
  let e = Net.Netmodel.latency a ~src:0 ~dst:1 ~now:(vt 10.) in
  checkf3 "fresher import wins" 0.1 e.Net.Netmodel.value;
  checki "new pair imported" 2 (List.length (Net.Netmodel.known_pairs a))

let test_netmodel_copy () =
  let m = Net.Netmodel.create () in
  Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 0.) 0.5;
  let c = Net.Netmodel.copy m in
  Net.Netmodel.observe_latency c ~src:0 ~dst:1 (vt 1.) 50.;
  let e = Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt 1.) in
  checkf3 "original unpolluted" 0.5 e.Net.Netmodel.value

let prop_confidence_monotone =
  QCheck.Test.make ~name:"confidence decays monotonically with age" ~count:100
    QCheck.(pair (float_bound_exclusive 50.) (float_bound_exclusive 50.))
    (fun (a, b) ->
      let m = Net.Netmodel.create () in
      Net.Netmodel.observe_latency m ~src:0 ~dst:1 (vt 0.) 0.1;
      let early = Float.min a b and late = Float.max a b in
      let ce = (Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt early)).Net.Netmodel.confidence in
      let cl = (Net.Netmodel.latency m ~src:0 ~dst:1 ~now:(vt late)).Net.Netmodel.confidence in
      cl <= ce +. 1e-12)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "net"
    [
      ( "linkprop",
        Alcotest.test_case "compose" `Quick test_linkprop_compose
        :: Alcotest.test_case "transfer time" `Quick test_linkprop_transfer_time
        :: Alcotest.test_case "invalid" `Quick test_linkprop_invalid
        :: qcheck [ prop_compose_assoc_latency ] );
      ( "topology",
        Alcotest.test_case "uniform" `Quick test_topology_uniform
        :: Alcotest.test_case "star" `Quick test_topology_star
        :: Alcotest.test_case "matrix" `Quick test_topology_matrix
        :: Alcotest.test_case "transit-stub structure" `Quick test_transit_stub_structure
        :: Alcotest.test_case "jitter determinism" `Quick test_transit_stub_jitter_deterministic
        :: Alcotest.test_case "transit-stub memo = direct path" `Quick test_transit_stub_memo
        :: Alcotest.test_case "degrade" `Quick test_topology_degrade
        :: Alcotest.test_case "waxman total" `Quick test_waxman_total
        :: qcheck [ prop_transit_stub_symmetric_locality ] );
      ( "netem",
        Alcotest.test_case "deliver" `Quick test_netem_deliver
        :: Alcotest.test_case "loss" `Quick test_netem_loss
        :: Alcotest.test_case "cut/heal" `Quick test_netem_cut_heal
        :: Alcotest.test_case "isolate" `Quick test_netem_isolate
        :: Alcotest.test_case "override" `Quick test_netem_override
        :: Alcotest.test_case "duplicate verdict" `Quick test_netem_duplicate_verdict
        :: Alcotest.test_case "corrupt verdict" `Quick test_netem_corrupt_verdict
        :: Alcotest.test_case "per-pair faults" `Quick test_netem_pair_faults
        :: Alcotest.test_case "fault validation" `Quick test_netem_faults_validated
        :: Alcotest.test_case "access serialization" `Quick test_netem_serialization
        :: Alcotest.test_case "copy" `Quick test_netem_copy_independent
        :: Alcotest.test_case "copy mutators stay on the copy" `Quick test_netem_copy_mutators
        :: Alcotest.test_case "endpoint range" `Quick test_netem_endpoint_range
        :: qcheck [ prop_cut_degrade_heal_roundtrip ] );
      ( "netmodel",
        Alcotest.test_case "latency ewma" `Quick test_netmodel_latency_estimate
        :: Alcotest.test_case "confidence decay" `Quick test_netmodel_confidence_decay
        :: Alcotest.test_case "unknown pair" `Quick test_netmodel_unknown
        :: Alcotest.test_case "predict transfer" `Quick test_netmodel_predict_transfer
        :: Alcotest.test_case "forget" `Quick test_netmodel_forget
        :: Alcotest.test_case "merge" `Quick test_netmodel_merge
        :: Alcotest.test_case "copy" `Quick test_netmodel_copy
        :: qcheck [ prop_confidence_monotone ] );
    ]
