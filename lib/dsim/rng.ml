(* SplitMix64 (Steele, Lea, Flood; JDK SplittableRandom). Chosen for its
   tiny state, good statistical quality, and a well-defined split
   operation, which lets us hand independent streams to every node. *)

(* The state is one int64 kept unboxed in 8 bytes: a mutable int64
   field would box a fresh value on every draw. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] bits64 t =
  let s = Int64.add (get t 0) golden_gamma in
  set t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

(* Rejection sampling on the low 62 bits to avoid modulo bias. *)
let rec below t n =
  let v = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL) in
  let r = v mod n in
  if v - r > max_int - n + 1 then below t n else r

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t n

(* 53 random bits into [0,1). *)
let[@inline] uniform t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

let[@inline] float t x = uniform t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. uniform t in
  -.mean *. log u

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty";
  a.(int t (Array.length a))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty"
  | xs -> pick_array t (Array.of_list xs)

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample_without_replacement t k xs =
  let shuffled = shuffle t xs in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take k shuffled
