(* The string-keyed choice site and the resolvers that read it, as they
   were before features became schema columns: each alternative's
   features a [(string * float) list], found by name on every decision.
   Kept verbatim, apart from the site type they now read, as the
   oracles of the schema resolvers' differential test. *)

type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_features : (string * float) list array;
}

(* The string-keyed site of a schema site: each alternative's features
   named, in schema order. *)
let of_site (s : Core.Choice.site) =
  let names = s.site_schema.names in
  let w = Array.length names in
  {
    site_label = s.site_label;
    site_node = s.site_node;
    site_occurrence = s.site_occurrence;
    site_arity = s.site_arity;
    site_features =
      Array.init s.site_arity (fun a ->
          List.init w (fun c -> (names.(c), s.site_features.((a * w) + c))));
  }

(* [String.equal], not [List.assoc_opt]'s polymorphic [compare]:
   resolvers look features up on every decision. The first binding of
   a name wins, as with [List.assoc_opt]. *)
let rec assoc_string name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc_string name rest

let feature s ~alt name =
  if alt < 0 || alt >= Array.length s.site_features then None
  else assoc_string name s.site_features.(alt)

let greedy ~feature:name ?(maximize = false) () =
  let choose rng (site : site) =
    let score i =
      match feature site ~alt:i name with
      | Some v -> if maximize then -.v else v
      | None -> infinity
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
  choose

let weighted ~feature:name =
  let choose rng (site : site) =
    let w i =
      match feature site ~alt:i name with
      | Some v when v > 0. -> v
      | Some _ | None -> 0.
    in
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
  choose

let session_resolver _rng site =
  let feature name i = Option.value ~default:0. (feature site ~alt:i name) in
  let floor = feature "floor" 0 in
  let fresh_enough i = feature "known_seq" i >= floor || feature "is_primary" i > 0.5 in
  let best = ref None in
  for i = 0 to site.site_arity - 1 do
    if fresh_enough i then
      match !best with
      | Some j when feature "rtt_ms" j <= feature "rtt_ms" i -> ()
      | Some _ | None -> best := Some i
  done;
  match !best with
  | Some i -> i
  | None ->
      let p = ref 0 in
      for i = 0 to site.site_arity - 1 do
        if feature "is_primary" i > 0.5 then p := i
      done;
      !p

(* Context key: the label plus each alternative's features quantised
   into [feature_buckets] levels via a squashing transform, so that
   sites describing "similar scenarios" share learned statistics. *)
let context_key ~feature_buckets (site : site) =
  let bucket v =
    let squashed = v /. (1. +. Float.abs v) in
    (* in (-1,1) *)
    let b = int_of_float ((squashed +. 1.) /. 2. *. float_of_int feature_buckets) in
    max 0 (min (feature_buckets - 1) b)
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf site.site_label;
  Array.iter
    (fun feats ->
      Buffer.add_char buf '|';
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf k;
          Buffer.add_char buf ':';
          Buffer.add_string buf (string_of_int (bucket v));
          Buffer.add_char buf ';')
        (List.sort (fun (a, _) (b, _) -> String.compare a b) feats))
    site.site_features;
  Buffer.contents buf
