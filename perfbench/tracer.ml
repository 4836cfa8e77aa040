(* Host-time spans around calls into each layer of the system.

   The benchmark never edits the system: it times layers from outside,
   by wrapping the functions an app hands to the engine (see [Timed])
   and the calls the harness makes into the engine and the runtime.
   Tracing has three modes. [Off] records nothing, so end-to-end
   figures carry no tracing cost. [Choices] only times outermost
   [Ctx.choose] calls, which the predict workload reports as decide
   latency. [Full] records every span.

   A span is (kind, start, end, parent). Open spans sit on a stack;
   closing one adds its duration to its parent's child time, so a
   kind's self time is its duration minus its children's. Totals are
   exact for every span; the first [capacity] spans of a run are also
   kept in memory and written out when the run ends. The tracer is
   single-domain, like every workload of the benchmark. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Rep  (** the harness itself: one repetition of a workload *)
  | Run_for  (** a call into the engine's event loop *)
  | Guard
  | Handle
  | Timer
  | Init
  | Holds  (** a property check *)
  | Log
  | Replay
  | Restore
  | Validate
  | Fingerprint
  | Choose
  | Tick  (** a call into the CrystalBall runtime *)

let kinds =
  [| Rep; Run_for; Guard; Handle; Timer; Init; Holds; Log; Replay; Restore; Validate; Fingerprint; Choose; Tick |]

let n_kinds = Array.length kinds

let index = function
  | Rep -> 0
  | Run_for -> 1
  | Guard -> 2
  | Handle -> 3
  | Timer -> 4
  | Init -> 5
  | Holds -> 6
  | Log -> 7
  | Replay -> 8
  | Restore -> 9
  | Validate -> 10
  | Fingerprint -> 11
  | Choose -> 12
  | Tick -> 13

let name = function
  | Rep -> "bench.rep"
  | Run_for -> "engine.run_for"
  | Guard -> "apps.guard"
  | Handle -> "apps.handle"
  | Timer -> "apps.on_timer"
  | Init -> "apps.init"
  | Holds -> "property.holds"
  | Log -> "durability.log"
  | Replay -> "durability.replay"
  | Restore -> "durability.restore"
  | Validate -> "validate"
  | Fingerprint -> "mc.fingerprint"
  | Choose -> "choice.choose"
  | Tick -> "crystal.tick"

(* The layer (module) each span kind belongs to. The runtime's self
   time includes the explorer's and the steering module's own work:
   they are only reachable through [Crystal.tick]. *)
let layer = function
  | Rep -> "bench"
  | Run_for -> "engine"
  | Guard | Handle | Timer | Init -> "apps"
  | Holds -> "property"
  | Log | Replay | Restore -> "durability"
  | Validate -> "validate"
  | Fingerprint -> "mc"
  | Choose -> "choice"
  | Tick -> "runtime"

let layers = [ "engine"; "apps"; "property"; "durability"; "validate"; "mc"; "choice"; "runtime"; "bench" ]

type mode = Off | Choices | Full

let mode = ref Off
let active () = !mode <> Off
let full () = !mode = Full

(* Per-kind totals. *)
let calls = Array.make n_kinds 0
let self_ns = Array.make n_kinds 0

(* Counts taken at the same boundaries. *)
let log_records = ref 0
let log_bytes = ref 0
let validate_rejects = ref 0
let tick_evals = ref 0  (* handler outcomes computed inside a steering round *)

(* Outermost [Ctx.choose] durations, in ns. *)
let decisions = ref []

(* Open spans. *)
let max_depth = 1024
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let choose_depth = ref 0
let tick_depth = ref 0

(* Retained spans. *)
let capacity = 65_536
let r_kind = Array.make capacity 0
let r_start = Array.make capacity 0
let r_end = Array.make capacity 0
let r_parent = Array.make capacity 0
let opened = ref 0

let reset () =
  Array.fill calls 0 n_kinds 0;
  Array.fill self_ns 0 n_kinds 0;
  log_records := 0;
  log_bytes := 0;
  validate_rejects := 0;
  tick_evals := 0;
  decisions := [];
  depth := 0;
  choose_depth := 0;
  tick_depth := 0;
  opened := 0

let enter k =
  let d = !depth in
  if d >= max_depth then failwith "Tracer: span stack overflow";
  st_kind.(d) <- index k;
  st_child.(d) <- 0;
  st_id.(d) <- !opened;
  incr opened;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let stop = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let k = st_kind.(d) and start = st_start.(d) in
  let dur = stop - start in
  calls.(k) <- calls.(k) + 1;
  self_ns.(k) <- self_ns.(k) + (dur - st_child.(d));
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let id = st_id.(d) in
  if id < capacity then begin
    r_kind.(id) <- k;
    r_start.(id) <- start;
    r_end.(id) <- stop;
    r_parent.(id) <- (if d > 0 then st_id.(d - 1) else -1)
  end

(* [span k f] runs [f] inside a span of kind [k] when tracing is full. *)
let span k f =
  if not (full ()) then f ()
  else begin
    enter k;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let choose f =
  let outer = !choose_depth = 0 in
  incr choose_depth;
  let t0 = if outer then now_ns () else 0 in
  let finish () =
    decr choose_depth;
    if outer then decisions := (now_ns () - t0) :: !decisions
  in
  match span Choose f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let tick f =
  incr tick_depth;
  match span Tick f with
  | v ->
      decr tick_depth;
      v
  | exception e ->
      decr tick_depth;
      raise e

let note_eval () = if full () && !tick_depth > 0 then incr tick_evals

let self_of_layer l =
  let acc = ref 0 in
  Array.iteri (fun i k -> if layer k = l then acc := !acc + self_ns.(i)) kinds;
  !acc

let calls_of k = calls.(index k)
let self_of k = self_ns.(index k)

(* One JSON object per retained span; times in ns from the first. *)
let write_spans path =
  let n = min !opened capacity in
  let base = if n > 0 then r_start.(0) else 0 in
  let oc = open_out path in
  for i = 0 to n - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      (name kinds.(r_kind.(i)))
      (r_start.(i) - base) (r_end.(i) - base) r_parent.(i)
  done;
  close_out oc;
  n
