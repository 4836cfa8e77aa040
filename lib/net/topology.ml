type t = { size : int; path : int -> int -> Linkprop.t }

let size t = t.size

let check t a b =
  if a < 0 || a >= t.size then invalid_arg "Topology.path: src out of range";
  if b < 0 || b >= t.size then invalid_arg "Topology.path: dst out of range"

let path t a b =
  check t a b;
  if a = b then Linkprop.ideal else t.path a b

let uniform ~n prop =
  if n <= 0 then invalid_arg "Topology.uniform: n must be positive";
  { size = n; path = (fun _ _ -> prop) }

let of_matrix m =
  let n = Array.length m in
  if n = 0 then invalid_arg "Topology.of_matrix: empty";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Topology.of_matrix: not square") m;
  { size = n; path = (fun a b -> m.(a).(b)) }

let star ~n ~hub_spoke =
  if n <= 1 then invalid_arg "Topology.star: need at least 2 endpoints";
  let path a b =
    if a = 0 || b = 0 then hub_spoke else Linkprop.compose hub_spoke hub_spoke
  in
  { size = n; path }

(* Floyd–Warshall on latency; bandwidth/loss composed along the chosen
   shortest path. n stays small (<= a few hundred) in our experiments. *)
let all_pairs_shortest n direct =
  let dist = Array.init n (fun a -> Array.init n (fun b -> direct a b)) in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        match (dist.(i).(k), dist.(k).(j)) with
        | Some ik, Some kj ->
            let via = Linkprop.compose ik kj in
            let better =
              match dist.(i).(j) with
              | None -> true
              | Some d -> via.Linkprop.latency < d.Linkprop.latency
            in
            if better then dist.(i).(j) <- Some via
        | _ -> ()
      done
    done
  done;
  dist

let random_waxman ~rng ~n ?(alpha = 0.4) ?(beta = 0.4) ?(base_latency = 0.01)
    ?(bandwidth = 1_000_000.) ?(loss = 0.) () =
  if n <= 1 then invalid_arg "Topology.random_waxman: need at least 2 endpoints";
  let coords = Array.init n (fun _ -> (Dsim.Rng.uniform rng, Dsim.Rng.uniform rng)) in
  let distance a b =
    let xa, ya = coords.(a) and xb, yb = coords.(b) in
    sqrt (((xa -. xb) ** 2.) +. ((ya -. yb) ** 2.))
  in
  let max_d = sqrt 2. in
  let direct a b =
    if a = b then Some Linkprop.ideal
    else
      let d = distance a b in
      let p = alpha *. exp (-.d /. (beta *. max_d)) in
      (* Symmetric edge decision: only sample for a < b, mirror otherwise. *)
      let lo = min a b and hi = max a b in
      let edge_rng = Dsim.Rng.create ((lo * 65_537) + hi) in
      ignore (Dsim.Rng.uniform edge_rng);
      let keep = Dsim.Rng.uniform edge_rng < p in
      if keep then Some (Linkprop.v ~latency:(base_latency +. (d *. 0.05)) ~bandwidth ~loss)
      else None
  in
  let dist = all_pairs_shortest n direct in
  let fallback =
    Linkprop.v ~latency:(base_latency +. (max_d *. 0.1)) ~bandwidth:(bandwidth /. 4.) ~loss
  in
  let path a b = match dist.(a).(b) with Some p -> p | None -> fallback in
  { size = n; path }

type transit_stub_params = {
  transits : int;
  stubs_per_transit : int;
  clients_per_stub : int;
  client_stub_latency : float;
  stub_transit_latency : float;
  transit_transit_latency : float;
  client_bandwidth : float;
  core_bandwidth : float;
  loss : float;
}

let default_transit_stub =
  {
    transits = 4;
    stubs_per_transit = 4;
    clients_per_stub = 4;
    client_stub_latency = 0.002;
    stub_transit_latency = 0.008;
    transit_transit_latency = 0.030;
    client_bandwidth = 1_250_000.;
    (* 10 Mbit/s *)
    core_bandwidth = 12_500_000.;
    (* 100 Mbit/s *)
    loss = 0.;
  }

let stub_of p endpoint =
  let per_stub = p.clients_per_stub in
  endpoint / per_stub

let transit_of p endpoint = stub_of p endpoint / p.stubs_per_transit

(* The memo's empty slot, compared by [==]: [Sys.opaque_identity]
   makes it a block of its own, which no computed path can be. *)
let unknown_path : Linkprop.t = { latency = Sys.opaque_identity 0.; bandwidth = 1.; loss = 1. }

let transit_stub ?jitter_rng p =
  if p.transits <= 0 || p.stubs_per_transit <= 0 || p.clients_per_stub <= 0 then
    invalid_arg "Topology.transit_stub: all counts must be positive";
  let n = p.transits * p.stubs_per_transit * p.clients_per_stub in
  let salt =
    match jitter_rng with
    | None -> 0
    | Some rng -> Int64.to_int (Int64.logand (Dsim.Rng.bits64 rng) 0x3FFFFFFFL)
  in
  let jitter base key =
    match jitter_rng with
    | None -> base
    | Some _ ->
        (* Per-pair deterministic jitter in [0.8, 1.2): the salt is drawn
           once from the topology rng, so runs remain reproducible while
           distinct pairs get distinct latencies. *)
        let local = Dsim.Rng.create (key + salt) in
        base *. (0.8 +. (0.4 *. Dsim.Rng.uniform local))
  in
  let ring_hops a b =
    let d = abs (a - b) in
    min d (p.transits - d)
  in
  let path a b =
    let sa = stub_of p a and sb = stub_of p b in
    let ta = transit_of p a and tb = transit_of p b in
    let key = (a * 1_000_003) + b in
    let access = Linkprop.v ~latency:(jitter p.client_stub_latency key) ~bandwidth:p.client_bandwidth ~loss:p.loss in
    if sa = sb then
      (* Same stub: client -> stub router -> client. *)
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
  (* Each pair's answer is computed on its first use and kept: a send
     asks for its path, and building one draws six jitter generators.
     Nothing is computed up front, as many set-ups build a topology and
     use a few of its pairs. *)
  let memo = Pair_rows.create ~absent:unknown_path in
  let path a b =
    let p = Pair_rows.find memo a b in
    if p != unknown_path then p
    else
      let p = path a b in
      Pair_rows.set memo a b p;
      p
  in
  { size = n; path }

let degrade t f =
  { size = t.size; path = (fun a b -> f a b (t.path a b)) }
