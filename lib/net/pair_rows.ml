type 'a t = { absent : 'a; mutable rows : 'a array array }

let create ~absent = { absent; rows = [||] }

let find t i j =
  if i < 0 || i >= Array.length t.rows then t.absent
  else
    let row = t.rows.(i) in
    if j < 0 || j >= Array.length row then t.absent else row.(j)

(* [grow a i fill] is [a] if it has a slot [i], else a copy at least
   twice as long, padded with [fill]. *)
let grow a i fill =
  let len = Array.length a in
  if i < len then a
  else
    let b = Array.make (max (i + 1) (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b

let set t i j e =
  if i < 0 || j < 0 then invalid_arg "Pair_rows.set: negative index";
  t.rows <- grow t.rows i [||];
  let row = grow t.rows.(i) j t.absent in
  t.rows.(i) <- row;
  row.(j) <- e

let copy t f =
  { t with rows = Array.map (Array.map (fun e -> if e == t.absent then e else f e)) t.rows }

let iter t f =
  Array.iteri (fun i row -> Array.iteri (fun j e -> if e != t.absent then f i j e) row) t.rows

let fold_row_rev t i f init =
  if i < 0 || i >= Array.length t.rows then init
  else
    let row = t.rows.(i) in
    let acc = ref init in
    for j = Array.length row - 1 downto 0 do
      let e = row.(j) in
      if e != t.absent then acc := f e j !acc
    done;
    !acc
