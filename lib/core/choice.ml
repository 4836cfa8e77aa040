type 'a alternative = {
  value : 'a;
  features : (string * float) list;
  describe : string;
}

type 'a t = { label : string; alternatives : 'a alternative list }

let alt ?(features = []) ?(describe = "-") value = { value; features; describe }

let make ~label alternatives =
  if String.length label = 0 then invalid_arg "Choice.make: empty label";
  if alternatives = [] then invalid_arg "Choice.make: no alternatives";
  { label; alternatives }

let of_values ~label ?(feature = fun _ -> []) values =
  make ~label (List.map (fun v -> alt ~features:(feature v) v) values)

let arity t = List.length t.alternatives

let nth t i =
  match List.nth_opt t.alternatives i with
  | Some a -> a.value
  | None -> invalid_arg "Choice.nth: index out of range"

let label t = t.label
let feature_matrix t = Array.of_list (List.map (fun a -> a.features) t.alternatives)

type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_features : (string * float) list array;
}

let site ~node ~occurrence t =
  {
    site_label = t.label;
    site_node = node;
    site_occurrence = occurrence;
    site_arity = arity t;
    site_features = feature_matrix t;
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

let pp_site ppf s =
  Format.fprintf ppf "%s@node%d#%d(%d alts)" s.site_label s.site_node s.site_occurrence
    s.site_arity
