type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
let to_string t = "n" ^ string_of_int t
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
