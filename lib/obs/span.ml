type span = {
  trace : int;
  seq : int;
  src : int;
  dst : int;
  kind : string;
  enqueue : float;
  deliver : float;
  verdict : string;
}

(* One column per field, indexed by [seq mod cap]; [seq] itself is the
   index, so it is not stored. The columns start small and double up to
   [cap], so a ring that sees few spans never holds [cap] slots, and
   recording a span allocates nothing outside the occasional doubling. *)
type ring = {
  cap : int;
  mutable traces : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable kinds : string array;
  mutable verdicts : string array;
  mutable enqueues : float array;
  mutable delivers : float array;
  mutable next : int;
}

let ring ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Span.ring: capacity must be positive";
  {
    cap = capacity;
    traces = [||];
    srcs = [||];
    dsts = [||];
    kinds = [||];
    verdicts = [||];
    enqueues = [||];
    delivers = [||];
    next = 0;
  }

let grow r =
  let len = Array.length r.traces in
  let n = Stdlib.min r.cap (Stdlib.max 16 (2 * len)) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 len;
    b
  in
  r.traces <- extend r.traces 0;
  r.srcs <- extend r.srcs 0;
  r.dsts <- extend r.dsts 0;
  r.kinds <- extend r.kinds "";
  r.verdicts <- extend r.verdicts "";
  r.enqueues <- extend r.enqueues 0.;
  r.delivers <- extend r.delivers 0.

let record r ~trace ~src ~dst ~kind ~enqueue ~deliver ~verdict =
  let seq = r.next in
  let i = seq mod r.cap in
  if i = Array.length r.traces then grow r;
  r.traces.(i) <- trace;
  r.srcs.(i) <- src;
  r.dsts.(i) <- dst;
  r.kinds.(i) <- kind;
  r.verdicts.(i) <- verdict;
  r.enqueues.(i) <- enqueue;
  r.delivers.(i) <- deliver;
  r.next <- seq + 1

let recorded r = r.next
let dropped r = Stdlib.max 0 (r.next - r.cap)

let spans r =
  let first = dropped r in
  List.init (r.next - first) (fun k ->
      let seq = first + k in
      let i = seq mod r.cap in
      {
        trace = r.traces.(i);
        seq;
        src = r.srcs.(i);
        dst = r.dsts.(i);
        kind = r.kinds.(i);
        enqueue = r.enqueues.(i);
        deliver = r.delivers.(i);
        verdict = r.verdicts.(i);
      })

let to_json s =
  Json.Obj
    [
      ("trace", Json.Int s.trace);
      ("seq", Json.Int s.seq);
      ("src", Json.Int s.src);
      ("dst", Json.Int s.dst);
      ("kind", Json.Str s.kind);
      ("enqueue", Json.Float s.enqueue);
      ("deliver", Json.Float s.deliver);
      ("verdict", Json.Str s.verdict);
    ]

let of_json j =
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let flt k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match
    (int "trace", int "seq", int "src", int "dst", str "kind", flt "enqueue",
     flt "deliver", str "verdict")
  with
  | Some trace, Some seq, Some src, Some dst, Some kind, Some enqueue, Some deliver,
    Some verdict ->
      Ok { trace; seq; src; dst; kind; enqueue; deliver; verdict }
  | _ -> Error "Span.of_json: missing or ill-typed field"

let to_json_lines r = List.map (fun s -> Json.to_string (to_json s)) (spans r)
