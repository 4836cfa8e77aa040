(* Differential tests for the endpoint-indexed network model and
   failure detector. The oracles below are the pair-hashed
   implementations they replaced, kept verbatim apart from names:
   random sequences of observations, link handles, copies, merges,
   forgets and heartbeats run against both, and every read — in range,
   out of range and negative — must agree exactly. *)

module Oracle_netmodel = struct
  type estimate = Net.Netmodel.estimate = {
    value : float;
    confidence : float;
    samples : int;
    last_update : Dsim.Vtime.t option;
  }

  type cell = { mutable ewma : float; mutable n : int; mutable at : Dsim.Vtime.t }

  type t = {
    alpha : float;
    half_life : float;
    latencies : (int * int, cell) Hashtbl.t;
    bandwidths : (int * int, cell) Hashtbl.t;
    losses : (int * int, cell) Hashtbl.t;
  }

  let create ?(alpha = 0.3) ?(half_life = 30.) () =
    {
      alpha;
      half_life;
      latencies = Hashtbl.create 64;
      bandwidths = Hashtbl.create 64;
      losses = Hashtbl.create 64;
    }

  let copy t =
    let deep table =
      let fresh = Hashtbl.create (Hashtbl.length table) in
      Hashtbl.iter (fun k (c : cell) -> Hashtbl.replace fresh k { c with ewma = c.ewma }) table;
      fresh
    in
    { t with latencies = deep t.latencies; bandwidths = deep t.bandwidths; losses = deep t.losses }

  let blank_cell () = { ewma = 0.; n = 0; at = Dsim.Vtime.zero }

  let observe_cell t (c : cell) now x =
    if c.n = 0 then begin
      c.ewma <- x;
      c.n <- 1;
      c.at <- now
    end
    else begin
      c.ewma <- ((1. -. t.alpha) *. c.ewma) +. (t.alpha *. x);
      c.n <- c.n + 1;
      c.at <- now
    end

  let cell_of table key =
    match Hashtbl.find_opt table key with
    | Some c -> c
    | None ->
        let c = blank_cell () in
        Hashtbl.replace table key c;
        c

  let observe t table ~src ~dst now x = observe_cell t (cell_of table (src, dst)) now x
  let observe_latency t ~src ~dst now x = observe t t.latencies ~src ~dst now x
  let observe_bandwidth t ~src ~dst now x = observe t t.bandwidths ~src ~dst now x

  let observe_loss t ~src ~dst now ~delivered =
    observe t t.losses ~src ~dst now (if delivered then 0. else 1.)

  type link = { l_latency : cell; l_bandwidth : cell; l_loss : cell }

  let link t ~src ~dst =
    let key = (src, dst) in
    {
      l_latency = cell_of t.latencies key;
      l_bandwidth = cell_of t.bandwidths key;
      l_loss = cell_of t.losses key;
    }

  let observe_link_latency t l now x = observe_cell t l.l_latency now x
  let observe_link_bandwidth t l now x = observe_cell t l.l_bandwidth now x

  let observe_link_loss t l now ~delivered =
    observe_cell t l.l_loss now (if delivered then 0. else 1.)

  let no_estimate = { value = 0.; confidence = 0.; samples = 0; last_update = None }

  let read t table ~src ~dst ~now =
    match Hashtbl.find_opt table (src, dst) with
    | None -> no_estimate
    | Some c when c.n = 0 -> no_estimate
    | Some c ->
        let age = Float.max 0. (Dsim.Vtime.diff now c.at) in
        let confidence = exp (-.age *. log 2. /. t.half_life) in
        { value = c.ewma; confidence; samples = c.n; last_update = Some c.at }

  let latency t ~src ~dst ~now = read t t.latencies ~src ~dst ~now
  let bandwidth t ~src ~dst ~now = read t t.bandwidths ~src ~dst ~now
  let loss t ~src ~dst ~now = read t t.losses ~src ~dst ~now

  let predict_path t ~src ~dst ~now =
    let l = latency t ~src ~dst ~now in
    if l.samples = 0 then None
    else
      let bw =
        let b = bandwidth t ~src ~dst ~now in
        if b.samples = 0 then 1_048_576. else Float.max 1. b.value
      in
      let p =
        let x = loss t ~src ~dst ~now in
        if x.samples = 0 then 0. else Float.min 1. (Float.max 0. x.value)
      in
      Some (Net.Linkprop.v ~latency:(Float.max 0. l.value) ~bandwidth:bw ~loss:p)

  let predict_transfer_time t ~src ~dst ~now ~bytes =
    match predict_path t ~src ~dst ~now with
    | None -> None
    | Some p ->
        let once = Net.Linkprop.transfer_time p ~bytes in
        let retries =
          if p.Net.Linkprop.loss >= 0.999 then 1000. else 1. /. (1. -. p.Net.Linkprop.loss)
        in
        Some (once *. retries)

  let known_pairs t =
    let keys table = Hashtbl.fold (fun k c acc -> if c.n > 0 then k :: acc else acc) table [] in
    List.sort_uniq compare (keys t.latencies @ keys t.bandwidths @ keys t.losses)

  let forget_before t cutoff =
    let prune table =
      Hashtbl.iter
        (fun _ c ->
          if c.n > 0 && Dsim.Vtime.(c.at < cutoff) then begin
            c.ewma <- 0.;
            c.n <- 0;
            c.at <- Dsim.Vtime.zero
          end)
        table
    in
    prune t.latencies;
    prune t.bandwidths;
    prune t.losses

  let merge_from dst src ~now =
    let merge_table mine theirs =
      Hashtbl.iter
        (fun key (c : cell) ->
          if c.n > 0 then
            let import (d : cell) =
              d.ewma <- c.ewma;
              d.n <- c.n;
              d.at <- c.at
            in
            match Hashtbl.find_opt mine key with
            | None -> Hashtbl.replace mine key { ewma = c.ewma; n = c.n; at = c.at }
            | Some existing when existing.n = 0 -> import existing
            | Some existing ->
                let conf (cell : cell) =
                  let age = Float.max 0. (Dsim.Vtime.diff now cell.at) in
                  exp (-.age *. log 2. /. dst.half_life)
                in
                if conf c > conf existing then import existing)
        theirs
    in
    merge_table dst.latencies src.latencies;
    merge_table dst.bandwidths src.bandwidths;
    merge_table dst.losses src.losses
end

module Oracle_fd = struct
  type cell = { mutable mean : float; mutable n : int; mutable at : Dsim.Vtime.t }

  type t = {
    alpha : float;
    threshold : float;
    bootstrap_interval : float;
    min_samples : int;
    cells : (int * int, cell) Hashtbl.t;
  }

  let create ?(alpha = 0.25) ?(threshold = 8.) ?(bootstrap_interval = 1.) ?(min_samples = 3) () =
    { alpha; threshold; bootstrap_interval; min_samples; cells = Hashtbl.create 64 }

  let copy t =
    let cells = Hashtbl.create (Hashtbl.length t.cells) in
    Hashtbl.iter (fun k (c : cell) -> Hashtbl.replace cells k { c with mean = c.mean }) t.cells;
    { t with cells }

  let log10_e = 0.4342944819032518

  let interval_of t c =
    if c.n < 2 then t.bootstrap_interval else Float.max t.bootstrap_interval c.mean

  let phi_of t c ~now =
    if c.n < t.min_samples then 0.
    else
      let elapsed = Float.max 0. (Dsim.Vtime.diff now c.at) in
      elapsed /. interval_of t c *. log10_e

  let heartbeat t ~observer ~peer ~now =
    let key = (observer, peer) in
    match Hashtbl.find_opt t.cells key with
    | None ->
        Hashtbl.replace t.cells key { mean = 0.; n = 1; at = now };
        false
    | Some c ->
        let was_suspected = phi_of t c ~now >= t.threshold in
        let sample = Float.max 0. (Dsim.Vtime.diff now c.at) in
        let sample = if c.n >= 2 then Float.min sample (3. *. interval_of t c) else sample in
        if c.n = 1 then c.mean <- sample
        else c.mean <- ((1. -. t.alpha) *. c.mean) +. (t.alpha *. sample);
        c.n <- c.n + 1;
        c.at <- now;
        was_suspected

  let phi t ~observer ~peer ~now =
    match Hashtbl.find_opt t.cells (observer, peer) with None -> 0. | Some c -> phi_of t c ~now

  let suspicion t ~observer ~peer ~now = Float.min 1. (phi t ~observer ~peer ~now /. t.threshold)
  let suspected t ~observer ~peer ~now = phi t ~observer ~peer ~now >= t.threshold

  let samples t ~observer ~peer =
    match Hashtbl.find_opt t.cells (observer, peer) with None -> 0 | Some c -> c.n

  let known_peers t ~observer =
    Hashtbl.fold (fun (o, p) _ acc -> if o = observer then p :: acc else acc) t.cells []
    |> List.sort_uniq compare
end

module Nm = Net.Netmodel
module Fd = Net.Failure_detector

let at = Dsim.Vtime.of_seconds

(* Writes land on endpoints 0..12, mostly low ones, so rows are grown
   both by doubling and past it; reads also probe -2..14. *)
let endpoint = QCheck.Gen.(frequency [ (5, 0 -- 4); (2, 5 -- 12) ])
let probes = List.init 17 (fun i -> i - 2)

(* ---------- network model ---------- *)

type kind = Lat | Bw | Loss

type nm_op =
  | Observe of { other : bool; kind : kind; src : int; dst : int; dt : float; x : float }
  | Make_link of { other : bool; src : int; dst : int }
  | Link_observe of { handle : int; kind : kind; dt : float; x : float }
  | Copy of { other : bool }
  | Merge of { into_other : bool }
  | Forget of { other : bool; back : float }

let pp_kind = function Lat -> "lat" | Bw -> "bw" | Loss -> "loss"
let side other = if other then "other" else "main"

let pp_nm_op = function
  | Observe { other; kind; src; dst; dt; x } ->
      Printf.sprintf "observe %s %s %d->%d +%g %g" (side other) (pp_kind kind) src dst dt x
  | Make_link { other; src; dst } -> Printf.sprintf "link %s %d->%d" (side other) src dst
  | Link_observe { handle; kind; dt; x } ->
      Printf.sprintf "link#%d %s +%g %g" handle (pp_kind kind) dt x
  | Copy { other } -> "copy " ^ side other
  | Merge { into_other } -> "merge into " ^ side into_other
  | Forget { other; back } -> Printf.sprintf "forget %s %g back" (side other) back

let gen_nm_op =
  let open QCheck.Gen in
  let kind = oneofl [ Lat; Bw; Loss ] in
  let dt = frequency [ (3, return 0.); (5, float_bound_inclusive 5.); (1, float_bound_inclusive 60.) ] in
  let x = frequency [ (3, float_bound_inclusive 1.); (1, float_bound_inclusive 1e6) ] in
  frequency
    [
      ( 6,
        map2
          (fun (other, kind, src, dst) (dt, x) -> Observe { other; kind; src; dst; dt; x })
          (quad (frequency [ (3, return false); (1, return true) ]) kind endpoint endpoint)
          (pair dt x) );
      (2, map3 (fun other src dst -> Make_link { other; src; dst }) bool endpoint endpoint);
      ( 4,
        map2
          (fun (handle, kind) (dt, x) -> Link_observe { handle; kind; dt; x })
          (pair nat kind) (pair dt x) );
      (1, map (fun other -> Copy { other }) bool);
      (1, map (fun into_other -> Merge { into_other }) bool);
      (1, map2 (fun other back -> Forget { other; back }) bool (float_bound_inclusive 30.));
    ]

let arb_nm_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_nm_op ops))
    QCheck.Gen.(list_size (0 -- 60) gen_nm_op)

(* Each side of the run holds both implementations' models. *)
type nm_pair = { o : Oracle_netmodel.t; n : Nm.t }

type handle = { ol : Oracle_netmodel.link; om : Oracle_netmodel.t; nl : Nm.link; nm : Nm.t }

let nm_create () =
  { o = Oracle_netmodel.create ~alpha:0.4 ~half_life:10. (); n = Nm.create ~alpha:0.4 ~half_life:10. () }

(* Every read of every probe pair at [now], in both implementations. *)
let nm_agree ~now (p : nm_pair) =
  Oracle_netmodel.known_pairs p.o = Nm.known_pairs p.n
  && List.for_all
       (fun src ->
         List.for_all
           (fun dst ->
             Oracle_netmodel.latency p.o ~src ~dst ~now = Nm.latency p.n ~src ~dst ~now
             && Oracle_netmodel.bandwidth p.o ~src ~dst ~now = Nm.bandwidth p.n ~src ~dst ~now
             && Oracle_netmodel.loss p.o ~src ~dst ~now = Nm.loss p.n ~src ~dst ~now
             && Oracle_netmodel.predict_path p.o ~src ~dst ~now = Nm.predict_path p.n ~src ~dst ~now
             && Oracle_netmodel.predict_transfer_time p.o ~src ~dst ~now ~bytes:512
                = Nm.predict_transfer_time p.n ~src ~dst ~now ~bytes:512)
           probes)
       probes

let run_nm ops =
  let clock = ref 0. in
  let main = ref (nm_create ()) and other = ref (nm_create ()) in
  let handles = ref [||] and retired = ref [] in
  let target o = if o then other else main in
  let tick dt =
    clock := !clock +. dt;
    at !clock
  in
  let observe_o kind (m : Oracle_netmodel.t) l now x =
    match kind with
    | Lat -> Oracle_netmodel.observe_link_latency m l now x
    | Bw -> Oracle_netmodel.observe_link_bandwidth m l now x
    | Loss -> Oracle_netmodel.observe_link_loss m l now ~delivered:(x < 0.5)
  in
  let observe_n kind m l now x =
    match kind with
    | Lat -> Nm.observe_link_latency m l now x
    | Bw -> Nm.observe_link_bandwidth m l now x
    | Loss -> Nm.observe_link_loss m l now ~delivered:(x < 0.5)
  in
  List.for_all
    (fun op ->
      (match op with
      | Observe { other; kind; src; dst; dt; x } -> (
          let p = !(target other) and now = tick dt in
          match kind with
          | Lat ->
              Oracle_netmodel.observe_latency p.o ~src ~dst now x;
              Nm.observe_latency p.n ~src ~dst now x
          | Bw ->
              Oracle_netmodel.observe_bandwidth p.o ~src ~dst now x;
              Nm.observe_bandwidth p.n ~src ~dst now x
          | Loss ->
              Oracle_netmodel.observe_loss p.o ~src ~dst now ~delivered:(x < 0.5);
              Nm.observe_loss p.n ~src ~dst now ~delivered:(x < 0.5))
      | Make_link { other; src; dst } ->
          let p = !(target other) in
          let h =
            { ol = Oracle_netmodel.link p.o ~src ~dst; om = p.o; nl = Nm.link p.n ~src ~dst; nm = p.n }
          in
          handles := Array.append !handles [| h |]
      | Link_observe { handle; kind; dt; x } ->
          let hs = !handles in
          if Array.length hs > 0 then begin
            (* A handle stays bound to the model that made it, which
               may since have been copied away from (see [Copy]). *)
            let h = hs.(handle mod Array.length hs) and now = tick dt in
            observe_o kind h.om h.ol now x;
            observe_n kind h.nm h.nl now x
          end
      | Copy { other } ->
          let r = target other in
          retired := !r :: !retired;
          r := { o = Oracle_netmodel.copy !r.o; n = Nm.copy !r.n }
      | Merge { into_other } ->
          let dst = !(target into_other) and src = !(target (not into_other)) in
          let now = at !clock in
          Oracle_netmodel.merge_from dst.o src.o ~now;
          Nm.merge_from dst.n src.n ~now
      | Forget { other; back } ->
          let p = !(target other) in
          let cutoff = at (Float.max 0. (!clock -. back)) in
          Oracle_netmodel.forget_before p.o cutoff;
          Nm.forget_before p.n cutoff);
      let now = at (!clock +. 1.) in
      nm_agree ~now !main && nm_agree ~now !other)
    ops
  (* Models copied away from keep whatever their handles wrote since. *)
  && List.for_all (nm_agree ~now:(at (!clock +. 1.))) !retired

let prop_netmodel_matches_oracle =
  QCheck.Test.make ~name:"netmodel rows = hashed oracle" ~count:200 arb_nm_ops run_nm

(* ---------- failure detector ---------- *)

type fd_op = Beat of { observer : int; peer : int; dt : float } | Fd_copy

let pp_fd_op = function
  | Beat { observer; peer; dt } -> Printf.sprintf "beat %d<-%d +%g" observer peer dt
  | Fd_copy -> "copy"

let arb_fd_ops =
  let open QCheck.Gen in
  let dt =
    frequency [ (2, return 0.); (6, float_bound_inclusive 2.); (2, float_bound_inclusive 40.) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_fd_op ops))
    (list_size (0 -- 80)
       (frequency
          [
            (12, map3 (fun observer peer dt -> Beat { observer; peer; dt }) endpoint endpoint dt);
            (1, return Fd_copy);
          ]))

let fd_agree ~now o n =
  List.for_all
    (fun observer ->
      Oracle_fd.known_peers o ~observer = Fd.known_peers n ~observer
      && List.for_all
           (fun peer ->
             Oracle_fd.phi o ~observer ~peer ~now = Fd.phi n ~observer ~peer ~now
             && Oracle_fd.suspicion o ~observer ~peer ~now = Fd.suspicion n ~observer ~peer ~now
             && Oracle_fd.suspected o ~observer ~peer ~now = Fd.suspected n ~observer ~peer ~now
             && Oracle_fd.samples o ~observer ~peer = Fd.samples n ~observer ~peer)
           probes)
    probes

let run_fd ops =
  let clock = ref 0. and o = ref (Oracle_fd.create ()) and n = ref (Fd.create ()) in
  let retired = ref [] in
  List.for_all
    (fun op ->
      let edges_agree =
        match op with
        | Beat { observer; peer; dt } ->
            clock := !clock +. dt;
            let now = at !clock in
            Oracle_fd.heartbeat !o ~observer ~peer ~now = Fd.heartbeat !n ~observer ~peer ~now
        | Fd_copy ->
            retired := (!o, !n) :: !retired;
            o := Oracle_fd.copy !o;
            n := Fd.copy !n;
            true
      in
      (* Probe both just after the event and well into a silence. *)
      edges_agree
      && fd_agree ~now:(at !clock) !o !n
      && fd_agree ~now:(at (!clock +. 25.)) !o !n)
    ops
  && List.for_all (fun (o, n) -> fd_agree ~now:(at (!clock +. 25.)) o n) !retired

let prop_fd_matches_oracle =
  QCheck.Test.make ~name:"failure detector rows = hashed oracle" ~count:200 arb_fd_ops run_fd

(* ---------- writes on negative endpoints ---------- *)

(* A node id is never negative, so neither structure can be asked to
   record one: writes raise, reads see nothing. *)
let test_negative_endpoints () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let m = Nm.create () in
  raises "link, negative src" (fun () -> Nm.link m ~src:(-1) ~dst:0);
  raises "link, negative dst" (fun () -> Nm.link m ~src:0 ~dst:(-3));
  raises "observe, negative src" (fun () -> Nm.observe_latency m ~src:(-1) ~dst:0 (at 1.) 0.1);
  Alcotest.(check (list (pair int int))) "nothing recorded" [] (Nm.known_pairs m);
  Alcotest.(check int)
    "negative read" 0
    (Nm.latency m ~src:(-1) ~dst:(-1) ~now:(at 1.)).samples;
  let fd = Fd.create () in
  raises "heartbeat, negative observer" (fun () -> Fd.heartbeat fd ~observer:(-1) ~peer:0 ~now:(at 1.));
  raises "heartbeat, negative peer" (fun () -> Fd.heartbeat fd ~observer:0 ~peer:(-1) ~now:(at 1.));
  Alcotest.(check (list int)) "no peers" [] (Fd.known_peers fd ~observer:(-1));
  Alcotest.(check int) "negative read" 0 (Fd.samples fd ~observer:0 ~peer:(-1))

(* A link made before its row grows past it still writes the cells the
   model reads. *)
let test_link_survives_row_growth () =
  let m = Nm.create () in
  let l = Nm.link m ~src:2 ~dst:1 in
  for dst = 2 to 40 do
    Nm.observe_latency m ~src:2 ~dst (at 1.) 0.5
  done;
  for src = 3 to 40 do
    Nm.observe_latency m ~src ~dst:0 (at 1.) 0.5
  done;
  Nm.observe_link_latency m l (at 2.) 0.25;
  Alcotest.(check (float 0.)) "handle wrote the model" 0.25 (Nm.latency m ~src:2 ~dst:1 ~now:(at 2.)).value;
  Alcotest.(check int) "pairs" (39 + 38 + 1) (List.length (Nm.known_pairs m))

let () =
  Alcotest.run "net_diff"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest [ prop_netmodel_matches_oracle; prop_fd_matches_oracle ]
      );
      ( "rows",
        [
          Alcotest.test_case "negative endpoints" `Quick test_negative_endpoints;
          Alcotest.test_case "link survives row growth" `Quick test_link_survives_row_growth;
        ] );
    ]
