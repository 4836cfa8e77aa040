type schema = { names : string array; by_name : int array }

let schema names =
  let names = Array.of_list names in
  let by_name = Array.init (Array.length names) Fun.id in
  Array.sort (fun a b -> String.compare names.(a) names.(b)) by_name;
  for i = 1 to Array.length by_name - 1 do
    if String.equal names.(by_name.(i - 1)) names.(by_name.(i)) then
      invalid_arg (Printf.sprintf "Choice.schema: repeated name %S" names.(by_name.(i)))
  done;
  { names; by_name }

let no_features = schema []
let width s = Array.length s.names

type 'a alternative = { value : 'a; features : float array }
type 'a t = { label : string; schema : schema; alternatives : 'a alternative list }

let alt ?(features = [||]) value = { value; features }

let make ~label ?(schema = no_features) alternatives =
  if String.length label = 0 then invalid_arg "Choice.make: empty label";
  if alternatives = [] then invalid_arg "Choice.make: no alternatives";
  if List.exists (fun a -> Array.length a.features <> width schema) alternatives then
    invalid_arg (Printf.sprintf "Choice.make: %s wants %d features per alternative" label (width schema));
  { label; schema; alternatives }

let of_values ~label ?schema ?(feature = fun _ -> [||]) values =
  make ~label ?schema (List.map (fun v -> alt ~features:(feature v) v) values)

let arity t = List.length t.alternatives

let nth t i =
  match List.nth_opt t.alternatives i with
  | Some a -> a.value
  | None -> invalid_arg "Choice.nth: index out of range"

type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_schema : schema;
  site_features : float array;
}

let site ~node ~occurrence t =
  let arity = arity t and w = width t.schema in
  let features = Array.create_float (arity * w) in
  List.iteri (fun i a -> Array.blit a.features 0 features (i * w) w) t.alternatives;
  { site_label = t.label; site_node = node; site_occurrence = occurrence; site_arity = arity;
    site_schema = t.schema; site_features = features }

let column name =
  let met = ref [] in
  fun site ->
    let s = site.site_schema in
    try List.assq s !met
    with Not_found ->
      let rec find i = if i = width s then -1 else if String.equal s.names.(i) name then i else find (i + 1) in
      let c = find 0 in
      met := (s, c) :: (if List.compare_length_with !met 8 < 0 then !met else []);
      c

let[@inline] value s c ~alt ~default =
  if c < 0 then default else s.site_features.((alt * width s.site_schema) + c)
