type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type record = { time : Vtime.t; level : level; component : string; message : string }

(* A retained record: its text, or until [records] first reads it, the
   printer that makes it. *)
type entry =
  | Text of { time : Vtime.t; level : level; component : string; message : string }
  | Print of {
      time : Vtime.t;
      level : level;
      component : string;
      print : Format.formatter -> unit;
    }

let empty = Text { time = Vtime.zero; level = Debug; component = ""; message = "" }

(* Retained records sit in a ring, oldest at [first]. The ring starts
   small and doubles up to [capacity], so a trace that keeps few
   records never holds [capacity] slots. *)
type t = {
  capacity : int;
  mutable ring : entry array;
  mutable first : int;
  mutable length : int;
  mutable total : int;
  mutable min_level : level;
  mutable suppressed : int;
}

let create ?(capacity = 100_000) ?(min_level = Debug) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = [||]; first = 0; length = 0; total = 0; min_level; suppressed = 0 }

let min_level t = t.min_level
let set_min_level t level = t.min_level <- level
let enabled t level = level_rank level >= level_rank t.min_level
let suppressed t = t.suppressed

let slot t k = (t.first + k) mod Array.length t.ring

let grow t =
  let n = Stdlib.min t.capacity (Stdlib.max 16 (2 * Array.length t.ring)) in
  let ring = Array.make n empty in
  for k = 0 to t.length - 1 do
    ring.(k) <- t.ring.(slot t k)
  done;
  t.ring <- ring;
  t.first <- 0

let push t e =
  if t.length = Array.length t.ring && t.length < t.capacity then grow t;
  if t.length < Array.length t.ring then begin
    t.ring.(slot t t.length) <- e;
    t.length <- t.length + 1
  end
  else begin
    (* Full: the newest record takes the oldest one's slot. *)
    t.ring.(t.first) <- e;
    t.first <- slot t 1
  end;
  t.total <- t.total + 1

let log t time level ~component message =
  if enabled t level then push t (Text { time; level; component; message })
  else t.suppressed <- t.suppressed + 1

let logp t time level ~component print =
  if enabled t level then push t (Print { time; level; component; print })
  else t.suppressed <- t.suppressed + 1

(* One formatter per domain, writing into one buffer. [Format.kasprintf]
   would build a fresh buffer and formatter for every record; this one
   is flushed after each message exactly as [kasprintf] flushes its
   own, which resets it, so the text is the same. [busy] covers a
   printer that logs while a message is being formatted: that message
   gets a fresh formatter. *)
type scratch = { buf : Buffer.t; ppf : Format.formatter; mutable busy : bool }

let scratch =
  Domain.DLS.new_key (fun () ->
      let buf = Buffer.create 256 in
      { buf; ppf = Format.formatter_of_buffer buf; busy = false })

let take s =
  Format.pp_print_flush s.ppf ();
  let message = Buffer.contents s.buf in
  Buffer.clear s.buf;
  s.busy <- false;
  message

let render print =
  let s = Domain.DLS.get scratch in
  if s.busy then Format.asprintf "%t" print
  else begin
    s.busy <- true;
    print s.ppf;
    take s
  end

let logf t time level ~component fmt =
  if enabled t level then begin
    let s = Domain.DLS.get scratch in
    if s.busy then Format.kasprintf (fun message -> log t time level ~component message) fmt
    else begin
      s.busy <- true;
      Format.kfprintf (fun _ -> log t time level ~component (take s)) s.ppf fmt
    end
  end
  else begin
    (* Below the gate: consume the format arguments without ever
       formatting them.  [ikfprintf] ignores everything, so a gated
       [logf t v Debug "%a" pp x] costs two branches and no
       allocation. *)
    t.suppressed <- t.suppressed + 1;
    Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  end

let records t =
  List.init t.length (fun k ->
      let i = slot t k in
      match t.ring.(i) with
      | Text { time; level; component; message } -> { time; level; component; message }
      | Print { time; level; component; print } ->
          let message = render print in
          t.ring.(i) <- Text { time; level; component; message };
          { time; level; component; message })

let count t = t.total

(* Allocation-free substring search: compare characters in place
   instead of carving a [String.sub] out of the haystack at every
   candidate position. *)
let contains_substring haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  if ln = 0 then true
  else if ln > lh then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= lh - ln do
      let j = ref 0 in
      while !j < ln && String.unsafe_get haystack (!i + !j) = String.unsafe_get needle !j do
        incr j
      done;
      if !j = ln then found := true else incr i
    done;
    !found
  end

let find t ~component ~substring =
  List.filter
    (fun r -> String.equal r.component component && contains_substring r.message substring)
    (records t)

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let pp_record ppf r =
  Format.fprintf ppf "[%a] %-5s %s: %s" Vtime.pp r.time (level_to_string r.level) r.component
    r.message
