(* Encoders append to a buffer; every codec also carries a structural
   [size] that computes the exact encoded length without encoding, so a
   caller that only needs the byte count (disk and link accounting)
   never builds the string. Decoders consume a string with a mutable
   cursor and fail with a message rather than an exception. *)

type cursor = { data : string; mutable pos : int }

exception Malformed of string

(* Structural description of the wire format, carried alongside the
   encode/decode closures so generic tooling (the byzantine mutator)
   can walk a codec's layout without access to the value type.
   [Tagged] lists the per-case payload shapes an application declared
   via [tagged ~cases]; tags absent from the list still decode — their
   payloads are just opaque to structure-aware consumers. *)
type shape =
  | Unit
  | Bool
  | Int
  | Float
  | String
  | Bytes
  | Option of shape
  | List of shape
  | Array of shape
  | Pair of shape * shape
  | Triple of shape * shape * shape
  | Tagged of (int * shape) list

type 'a t = {
  enc : Buffer.t -> 'a -> unit;
  dec : cursor -> 'a;
  size : 'a -> int;  (* = the number of bytes [enc] appends *)
  sh : shape;
}

let shape c = c.sh

let encode c v =
  let buf = Buffer.create 64 in
  c.enc buf v;
  Buffer.contents buf

let size c v = c.size v

let decode c s =
  let cur = { data = s; pos = 0 } in
  match c.dec cur with
  | v ->
      if cur.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing bytes at offset %d" cur.pos)
  | exception Malformed msg -> Error msg

let read_char cur =
  if cur.pos >= String.length cur.data then raise (Malformed "unexpected end of input");
  let c = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let read_string cur n =
  (* Compare by subtraction: an adversarial length near [max_int] makes
     [cur.pos + n] wrap negative and slip past an addition-form bound
     check, letting [String.sub] raise [Invalid_argument] instead of
     the [Malformed] that [decode] catches. *)
  if n < 0 || n > String.length cur.data - cur.pos then
    raise (Malformed "unexpected end of input");
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* Unsigned LEB128 over the int's bits. *)
let enc_uint buf v =
  let rec go v =
    let low = v land 0x7F in
    let rest = v lsr 7 in
    if rest = 0 then Buffer.add_char buf (Char.chr low)
    else begin
      Buffer.add_char buf (Char.chr (low lor 0x80));
      go rest
    end
  in
  go v

(* Bytes [enc_uint] writes: one per started 7-bit group. *)
let uint_size v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 7) in
  go 1 (v lsr 7)

let dec_uint cur =
  let rec go shift acc =
    if shift > 63 then raise (Malformed "varint too long");
    let b = Char.code (read_char cur) in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let unit = { enc = (fun _ () -> ()); dec = (fun _ -> ()); size = (fun () -> 0); sh = Unit }

let bool =
  {
    enc = (fun buf b -> Buffer.add_char buf (if b then '\001' else '\000'));
    dec =
      (fun cur ->
        match read_char cur with
        | '\000' -> false
        | '\001' -> true
        | c -> raise (Malformed (Printf.sprintf "invalid bool byte %d" (Char.code c))));
    size = (fun _ -> 1);
    sh = Bool;
  }

(* Zig-zag so negative ints stay short. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let int =
  {
    enc = (fun buf v -> enc_uint buf (zigzag v));
    dec =
      (fun cur ->
        let u = dec_uint cur in
        (u lsr 1) lxor (-(u land 1)));
    size = (fun v -> uint_size (zigzag v));
    sh = Int;
  }

let float =
  {
    enc = (fun buf v -> Buffer.add_int64_le buf (Int64.bits_of_float v));
    dec =
      (fun cur ->
        let bits = ref 0L in
        for i = 0 to 7 do
          bits :=
            Int64.logor !bits (Int64.shift_left (Int64.of_int (Char.code (read_char cur))) (8 * i))
        done;
        Int64.float_of_bits !bits);
    size = (fun _ -> 8);
    sh = Float;
  }

let string_size n = uint_size n + n

(* [read_string] bounds the claimed length by the remaining input, so a
   mutated length header can neither allocate beyond the message nor
   escape [decode] as anything but [Malformed]. *)
let string =
  {
    enc =
      (fun buf s ->
        enc_uint buf (String.length s);
        Buffer.add_string buf s);
    dec =
      (fun cur ->
        let n = dec_uint cur in
        read_string cur n);
    size = (fun s -> string_size (String.length s));
    sh = String;
  }

let bytes_ =
  {
    enc = (fun buf b -> string.enc buf (Bytes.to_string b));
    dec = (fun cur -> Bytes.of_string (string.dec cur));
    size = (fun b -> string_size (Bytes.length b));
    sh = Bytes;
  }

let option c =
  {
    enc =
      (fun buf -> function
        | None -> Buffer.add_char buf '\000'
        | Some v ->
            Buffer.add_char buf '\001';
            c.enc buf v);
    dec =
      (fun cur ->
        match read_char cur with
        | '\000' -> None
        | '\001' -> Some (c.dec cur)
        | ch -> raise (Malformed (Printf.sprintf "invalid option byte %d" (Char.code ch))));
    size = (function None -> 1 | Some v -> 1 + c.size v);
    sh = Option c.sh;
  }

(* Adversarial inputs can claim absurd lengths; since every element
   costs at least one byte on the wire (unit elements excepted, which
   no codec here produces standalone), a claimed length beyond the
   remaining input is malformed — rejecting it up front keeps [decode]
   total instead of attempting a huge allocation. *)
let dec_length cur =
  let n = dec_uint cur in
  (* [dec_uint] can overflow into a negative OCaml int (63-bit) on
     adversarial varints; a negative length is as malformed as an
     oversized one and must not reach [List.init]. *)
  if n < 0 || n > String.length cur.data - cur.pos then
    raise (Malformed (Printf.sprintf "container length %d exceeds remaining input" n));
  n

let collection ~length ~iter ~of_list ?(elements_size = fun _ -> None) c =
  {
    enc =
      (fun buf xs ->
        enc_uint buf (length xs);
        iter (c.enc buf) xs);
    dec =
      (fun cur ->
        let n = dec_length cur in
        of_list (List.init n (fun _ -> c.dec cur)));
    size =
      (fun xs ->
        let n = length xs in
        match elements_size xs with
        | Some bytes -> uint_size n + bytes
        | None ->
            let total = ref (uint_size n) in
            iter (fun x -> total := !total + c.size x) xs;
            !total);
    sh = List c.sh;
  }

let list c = collection ~length:List.length ~iter:List.iter ~of_list:Fun.id c

let array c =
  {
    enc =
      (fun buf xs ->
        enc_uint buf (Array.length xs);
        Array.iter (c.enc buf) xs);
    dec =
      (fun cur ->
        let n = dec_length cur in
        Array.init n (fun _ -> c.dec cur));
    size = (fun xs -> Array.fold_left (fun acc x -> acc + c.size x) (uint_size (Array.length xs)) xs);
    sh = Array c.sh;
  }

let pair a b =
  {
    enc =
      (fun buf (x, y) ->
        a.enc buf x;
        b.enc buf y);
    dec =
      (fun cur ->
        let x = a.dec cur in
        let y = b.dec cur in
        (x, y));
    size = (fun (x, y) -> a.size x + b.size y);
    sh = Pair (a.sh, b.sh);
  }

let triple a b c =
  {
    enc =
      (fun buf (x, y, z) ->
        a.enc buf x;
        b.enc buf y;
        c.enc buf z);
    dec =
      (fun cur ->
        let x = a.dec cur in
        let y = b.dec cur in
        let z = c.dec cur in
        (x, y, z));
    size = (fun (x, y, z) -> a.size x + b.size y + c.size z);
    sh = Triple (a.sh, b.sh, c.sh);
  }

let conv to_repr of_repr repr =
  {
    enc = (fun buf v -> repr.enc buf (to_repr v));
    dec =
      (fun cur ->
        let r = repr.dec cur in
        (* A representation that decodes but fails validation (e.g. a
           negative node id from corrupted bytes) is malformed wire
           data, not a crash. *)
        try of_repr r with
        | Malformed _ as e -> raise e
        | e -> raise (Malformed (Printexc.to_string e)));
    size = (fun v -> repr.size (to_repr v));
    sh = repr.sh;
  }

let tagged ?(cases = []) to_case of_case =
  {
    enc =
      (fun buf v ->
        let tag, payload = to_case v in
        enc_uint buf tag;
        string.enc buf payload);
    dec =
      (fun cur ->
        let tag = dec_uint cur in
        let payload = string.dec cur in
        match of_case tag payload with
        | Ok v -> v
        | Error msg -> raise (Malformed msg));
    size =
      (fun v ->
        let tag, payload = to_case v in
        uint_size tag + string.size payload);
    sh = Tagged cases;
  }

(* ---------- generic views ----------

   A [view] is the structure-preserving decoding of a message under its
   codec's [shape]: the mutator decodes bytes to a view, perturbs typed
   nodes, and re-encodes — never touching raw bytes blindly. A tagged
   payload whose tag has no declared shape stays [Raw]. *)

type view =
  | Vunit
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vbytes of bytes
  | Voption of view option
  | Vlist of view list
  | Varray of view array
  | Vpair of view * view
  | Vtriple of view * view * view
  | Vtagged of int * payload

and payload = Raw of string | Shaped of view

(* [size_view] mirrors [enc_view] case for case, so a shaped payload's
   length prefix is known before its bytes are written. *)
let rec size_view sh v =
  match (sh, v) with
  | Unit, Vunit -> 0
  | Bool, Vbool _ -> 1
  | Int, Vint i -> int.size i
  | Float, Vfloat _ -> 8
  | String, Vstring s -> string.size s
  | Bytes, Vbytes b -> bytes_.size b
  | Option _, Voption None -> 1
  | Option s, Voption (Some v) -> 1 + size_view s v
  | List s, Vlist vs ->
      List.fold_left (fun acc v -> acc + size_view s v) (uint_size (List.length vs)) vs
  | Array s, Varray vs ->
      Array.fold_left (fun acc v -> acc + size_view s v) (uint_size (Array.length vs)) vs
  | Pair (a, b), Vpair (x, y) -> size_view a x + size_view b y
  | Triple (a, b, c), Vtriple (x, y, z) -> size_view a x + size_view b y + size_view c z
  | Tagged _, Vtagged (tag, Raw s) -> uint_size tag + string.size s
  | Tagged cases, Vtagged (tag, Shaped v) -> (
      match List.assoc_opt tag cases with
      | Some s -> uint_size tag + string_size (size_view s v)
      | None -> raise (Malformed "shaped payload for an undeclared tag"))
  | _ -> raise (Malformed "view does not match shape")

let rec enc_view sh buf v =
  match (sh, v) with
  | Unit, Vunit -> ()
  | Bool, Vbool b -> bool.enc buf b
  | Int, Vint i -> int.enc buf i
  | Float, Vfloat f -> float.enc buf f
  | String, Vstring s -> string.enc buf s
  | Bytes, Vbytes b -> bytes_.enc buf b
  | Option s, Voption o -> (
      match o with
      | None -> Buffer.add_char buf '\000'
      | Some v ->
          Buffer.add_char buf '\001';
          enc_view s buf v)
  | List s, Vlist vs ->
      enc_uint buf (List.length vs);
      List.iter (enc_view s buf) vs
  | Array s, Varray vs ->
      enc_uint buf (Array.length vs);
      Array.iter (enc_view s buf) vs
  | Pair (a, b), Vpair (x, y) ->
      enc_view a buf x;
      enc_view b buf y
  | Triple (a, b, c), Vtriple (x, y, z) ->
      enc_view a buf x;
      enc_view b buf y;
      enc_view c buf z
  | Tagged cases, Vtagged (tag, p) -> (
      enc_uint buf tag;
      match p with
      | Raw s -> string.enc buf s
      | Shaped v -> (
          match List.assoc_opt tag cases with
          | Some s ->
              (* Payloads are length-prefixed on the wire. *)
              enc_uint buf (size_view s v);
              enc_view s buf v
          | None -> raise (Malformed "shaped payload for an undeclared tag")))
  | _ -> raise (Malformed "view does not match shape")

let rec dec_view sh cur =
  match sh with
  | Unit -> Vunit
  | Bool -> Vbool (bool.dec cur)
  | Int -> Vint (int.dec cur)
  | Float -> Vfloat (float.dec cur)
  | String -> Vstring (string.dec cur)
  | Bytes -> Vbytes (bytes_.dec cur)
  | Option s -> (
      match read_char cur with
      | '\000' -> Voption None
      | '\001' -> Voption (Some (dec_view s cur))
      | ch -> raise (Malformed (Printf.sprintf "invalid option byte %d" (Char.code ch))))
  | List s ->
      let n = dec_length cur in
      Vlist (List.init n (fun _ -> dec_view s cur))
  | Array s ->
      let n = dec_length cur in
      Varray (Array.init n (fun _ -> dec_view s cur))
  | Pair (a, b) ->
      let x = dec_view a cur in
      let y = dec_view b cur in
      Vpair (x, y)
  | Triple (a, b, c) ->
      let x = dec_view a cur in
      let y = dec_view b cur in
      let z = dec_view c cur in
      Vtriple (x, y, z)
  | Tagged cases -> (
      let tag = dec_uint cur in
      let payload = string.dec cur in
      match List.assoc_opt tag cases with
      | Some s -> (
          let pcur = { data = payload; pos = 0 } in
          match dec_view s pcur with
          | v when pcur.pos = String.length payload -> Vtagged (tag, Shaped v)
          (* Structure mismatched or didn't consume the whole payload:
             keep it raw rather than silently dropping bytes — the
             declared shape is advisory, the codec is the authority. *)
          | _ -> Vtagged (tag, Raw payload)
          | exception Malformed _ -> Vtagged (tag, Raw payload))
      | None -> Vtagged (tag, Raw payload))

let view_codec sh =
  { enc = (fun buf v -> enc_view sh buf v); dec = dec_view sh; size = size_view sh; sh }
