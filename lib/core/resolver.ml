type t = {
  name : string;
  choose : Dsim.Rng.t -> Choice.site -> int;
  feedback : site:Choice.site -> chosen:int -> reward:float -> unit;
}

let no_feedback ~site:_ ~chosen:_ ~reward:_ = ()

let make ~name ?(feedback = no_feedback) choose = { name; choose; feedback }

let first = make ~name:"first" (fun _ _ -> 0)

let random =
  make ~name:"random" (fun rng site -> Dsim.Rng.int rng site.Choice.site_arity)

let round_robin () =
  let counters : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let choose _rng (site : Choice.site) =
    let k = site.site_label in
    let c = Option.value ~default:0 (Hashtbl.find_opt counters k) in
    Hashtbl.replace counters k (c + 1);
    c mod site.site_arity
  in
  make ~name:"round-robin" choose

let forced moves ~fallback =
  let choose rng (site : Choice.site) =
    match List.assoc_opt site.site_occurrence moves with
    | Some i -> min i (site.site_arity - 1)
    | None -> fallback.choose rng site
  in
  make ~name:"forced" choose

let greedy ~feature ?(maximize = false) () =
  let column = Choice.column feature in
  let choose rng (site : Choice.site) =
    let c = column site and w = Choice.width site.site_schema in
    let score i =
      if c < 0 then infinity
      else if maximize then -.site.site_features.((i * w) + c)
      else site.site_features.((i * w) + c)
    in
    let best_score = ref (score 0) in
    for i = 1 to site.site_arity - 1 do
      let s = score i in
      if s < !best_score then best_score := s
    done;
    (* Random among ties — "rarest-random" style — so that independent
       nodes facing the same feature landscape do not all stampede to
       the same alternative. *)
    let tied = ref [] in
    for i = site.site_arity - 1 downto 0 do
      if score i <= !best_score then tied := i :: !tied
    done;
    Dsim.Rng.pick rng !tied
  in
  make ~name:(Printf.sprintf "greedy(%s%s)" (if maximize then "max " else "min ") feature) choose

let weighted ~feature =
  let column = Choice.column feature in
  let choose rng (site : Choice.site) =
    let c = column site in
    let w i = match Choice.value site c ~alt:i ~default:0. with v when v > 0. -> v | _ -> 0. in
    let total = ref 0. in
    for i = 0 to site.site_arity - 1 do
      total := !total +. w i
    done;
    if !total <= 0. then Dsim.Rng.int rng site.site_arity
    else begin
      let target = Dsim.Rng.float rng !total in
      let acc = ref 0. and picked = ref (site.site_arity - 1) in
      (try
         for i = 0 to site.site_arity - 1 do
           acc := !acc +. w i;
           if !acc > target then begin
             picked := i;
             raise Exit
           end
         done
       with Exit -> ());
      !picked
    end
  in
  make ~name:(Printf.sprintf "weighted(%s)" feature) choose

let by_label routes ~default =
  let pick (site : Choice.site) =
    Option.value ~default (List.assoc_opt site.site_label routes)
  in
  {
    name = "by-label(" ^ String.concat "," (List.map fst routes) ^ ")";
    choose = (fun rng site -> (pick site).choose rng site);
    feedback = (fun ~site ~chosen ~reward -> (pick site).feedback ~site ~chosen ~reward);
  }

let epsilon_mix ~epsilon ~explore ~exploit =
  if epsilon < 0. || epsilon > 1. then invalid_arg "Resolver.epsilon_mix: epsilon out of [0,1]";
  {
    name = Printf.sprintf "mix(%.2f %s | %s)" epsilon explore.name exploit.name;
    choose =
      (fun rng site ->
        if Dsim.Rng.uniform rng < epsilon then explore.choose rng site
        else exploit.choose rng site);
    feedback =
      (fun ~site ~chosen ~reward ->
        explore.feedback ~site ~chosen ~reward;
        exploit.feedback ~site ~chosen ~reward);
  }

let apply t rng choice ~node ~occurrence =
  let site = Choice.site ~node ~occurrence choice in
  let i = t.choose rng site in
  if i < 0 || i >= site.site_arity then
    invalid_arg
      (Printf.sprintf "Resolver.apply: %s answered %d for arity %d at %s" t.name i
         site.site_arity site.site_label);
  (Choice.nth choice i, i)
