(* Three parallel columns indexed by heap slot. [keys] is a flat float
   array, the layout [Float.Array] has; built with [Array.make] it
   costs the engine's set-up no extra runtime primitives. [vals] is
   empty until the first push supplies a value to fill it with. *)
type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t v =
  let cap = Array.length t.vals in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    if t.size > 0 then Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- extend t.keys 0.;
  t.seqs <- extend t.seqs 0;
  (* Slots beyond [size] are never read; they hold [v] until reused. *)
  t.vals <- extend t.vals v

(* Whether slot [a] orders before slot [b]: earlier key, or the same
   key pushed first. *)
let before (keys : float array) (seqs : int array) a b =
  let ka = Array.unsafe_get keys a and kb = Array.unsafe_get keys b in
  ka < kb || (ka = kb && Array.unsafe_get seqs a < Array.unsafe_get seqs b)

(* Both sifts move a hole rather than swapping: the entry being placed
   stays in locals (its key unboxed) until its slot is found, which
   gives the layout a swapping sift would, with fewer writes. Every
   index is below [size], so the column accesses skip bounds checks. *)

let push t k v =
  if t.size = Array.length t.vals then grow t v;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let i = ref t.size in
  t.size <- !i + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if k < kp || (k = kp && s < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set vals !i v

let min_key t = if t.size = 0 then infinity else t.keys.(0)

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty";
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then begin
    (* Sift the last entry down from the root: the smaller child moves
       up while it orders before the entry, the left child winning
       ties, exactly as a swapping sift-down would order them. *)
    let k = Array.unsafe_get keys size
    and s = Array.unsafe_get seqs size
    and v = Array.unsafe_get vals size in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= size then sinking := false
      else begin
        let c = if l + 1 < size && before keys seqs (l + 1) l then l + 1 else l in
        let kc = Array.unsafe_get keys c in
        if kc < k || (kc = k && Array.unsafe_get seqs c < s) then begin
          Array.unsafe_set keys !i kc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else sinking := false
      end
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set vals !i v;
    (* The vacated slot keeps a live element rather than the moved one,
       so it pins nothing the queue no longer holds. *)
    Array.unsafe_set vals size (Array.unsafe_get vals 0)
  end;
  top

let copy t =
  {
    t with
    keys = Array.sub t.keys 0 t.size;
    seqs = Array.sub t.seqs 0 t.size;
    vals = Array.sub t.vals 0 t.size;
  }

let drain t =
  let rec loop acc =
    if t.size = 0 then List.rev acc
    else
      let k = min_key t in
      loop ((k, pop t) :: acc)
  in
  loop []

let rev_fold t ~init ~f =
  let acc = ref init in
  for i = t.size - 1 downto 0 do
    acc := f !acc t.vals.(i)
  done;
  !acc
