type algo = Ucb1 of float | Epsilon_greedy of float

type arm_stats = { mutable pulls : int; mutable total : float }

type context_stats = { arms : (int, arm_stats) Hashtbl.t; mutable total_pulls : int }

type t = {
  algo : algo;
  feature_buckets : int;
  contexts : (string, context_stats) Hashtbl.t;
}

let create ?(algo = Ucb1 (sqrt 2.)) ?(feature_buckets = 4) () =
  (match algo with
  | Ucb1 c when c < 0. -> invalid_arg "Bandit.create: negative exploration constant"
  | Epsilon_greedy e when e < 0. || e > 1. -> invalid_arg "Bandit.create: epsilon out of [0,1]"
  | Ucb1 _ | Epsilon_greedy _ -> ());
  if feature_buckets <= 0 then invalid_arg "Bandit.create: feature_buckets must be positive";
  { algo; feature_buckets; contexts = Hashtbl.create 32 }

(* Context key: the label plus each alternative's features quantised
   into [feature_buckets] levels via a squashing transform, so that
   sites describing "similar scenarios" share learned statistics. *)
let context_key t (site : Choice.site) =
  let bucket v =
    let squashed = v /. (1. +. Float.abs v) in
    (* in (-1,1) *)
    let b = int_of_float ((squashed +. 1.) /. 2. *. float_of_int t.feature_buckets) in
    max 0 (min (t.feature_buckets - 1) b)
  in
  let schema = site.site_schema and w = Choice.width site.site_schema in
  let buf = Buffer.create 64 in
  Buffer.add_string buf site.site_label;
  for alt = 0 to site.site_arity - 1 do
    Buffer.add_char buf '|';
    Array.iter
      (fun c ->
        Buffer.add_string buf schema.names.(c);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int (bucket site.site_features.((alt * w) + c)));
        Buffer.add_char buf ';')
      schema.by_name
  done;
  Buffer.contents buf

let context t site =
  let key = context_key t site in
  match Hashtbl.find_opt t.contexts key with
  | Some c -> c
  | None ->
      let c = { arms = Hashtbl.create 8; total_pulls = 0 } in
      Hashtbl.replace t.contexts key c;
      c

let arm_stats c arm =
  match Hashtbl.find_opt c.arms arm with
  | Some s -> s
  | None ->
      let s = { pulls = 0; total = 0. } in
      Hashtbl.replace c.arms arm s;
      s

let select t rng (site : Choice.site) =
  let c = context t site in
  let n = site.site_arity in
  let unplayed =
    let rec find i = if i >= n then None else if (arm_stats c i).pulls = 0 then Some i else find (i + 1) in
    find 0
  in
  match unplayed with
  | Some i -> i
  | None -> (
      match t.algo with
      | Epsilon_greedy eps when Dsim.Rng.uniform rng < eps -> Dsim.Rng.int rng n
      | Epsilon_greedy _ ->
          let best = ref 0 and best_mean = ref neg_infinity in
          for i = 0 to n - 1 do
            let s = arm_stats c i in
            let m = s.total /. float_of_int s.pulls in
            if m > !best_mean then begin
              best := i;
              best_mean := m
            end
          done;
          !best
      | Ucb1 explore ->
          let ln_total = log (float_of_int (max 1 c.total_pulls)) in
          let best = ref 0 and best_score = ref neg_infinity in
          for i = 0 to n - 1 do
            let s = arm_stats c i in
            let mean = s.total /. float_of_int s.pulls in
            let bonus = explore *. sqrt (ln_total /. float_of_int s.pulls) in
            let score = mean +. bonus in
            if score > !best_score then begin
              best := i;
              best_score := score
            end
          done;
          !best)

let update t site ~arm ~reward =
  let c = context t site in
  let s = arm_stats c arm in
  s.pulls <- s.pulls + 1;
  s.total <- s.total +. reward;
  c.total_pulls <- c.total_pulls + 1

let pulls t site ~arm = (arm_stats (context t site) arm).pulls

let mean_reward t site ~arm =
  let s = arm_stats (context t site) arm in
  if s.pulls = 0 then 0. else s.total /. float_of_int s.pulls

let contexts t = Hashtbl.length t.contexts
let context_pulls t site = (context t site).total_pulls

let to_resolver t =
  Resolver.make ~name:"bandit"
    ~feedback:(fun ~site ~chosen ~reward -> update t site ~arm:chosen ~reward)
    (fun rng site -> select t rng site)

let exploit t (site : Choice.site) =
  match Hashtbl.find_opt t.contexts (context_key t site) with
  | None -> 0
  | Some c ->
      let best = ref 0 and best_mean = ref neg_infinity in
      for i = 0 to site.site_arity - 1 do
        match Hashtbl.find_opt c.arms i with
        | Some s when s.pulls > 0 ->
            let m = s.total /. float_of_int s.pulls in
            if m > !best_mean then begin
              best := i;
              best_mean := m
            end
        | Some _ | None -> ()
      done;
      !best

let exploit_resolver t =
  Resolver.make ~name:"bandit-exploit" (fun _rng site -> exploit t site)
