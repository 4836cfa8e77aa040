(* Host time and engine events per whole second of virtual time, for
   one engine. The harness advances every engine through [advance],
   which splits the run at whole virtual seconds. Splitting is
   invisible to the engine: [run_until] processes the same events in
   the same order whatever the boundaries, and the last chunk ends at
   exactly the instant [run_for] would have computed. *)

type t = { mutable host_ns : int array; mutable events : int array; mutable used : int }

let create () = { host_ns = Array.make 64 0; events = Array.make 64 0; used = 0 }

let charge m sec ns ev =
  if sec >= Array.length m.host_ns then begin
    let grow a = Array.append a (Array.make (max 64 (sec + 1 - Array.length a)) 0) in
    m.host_ns <- grow m.host_ns;
    m.events <- grow m.events
  end;
  m.host_ns.(sec) <- m.host_ns.(sec) + ns;
  m.events.(sec) <- m.events.(sec) + ev;
  if sec >= m.used then m.used <- sec + 1

(* The second that ends at or after virtual time [t]: work done at the
   instant [t] closes the slice that ran up to it. *)
let second_closing t = max 0 (int_of_float (Float.ceil t) - 1)

(* Always at least one [run_until], as [run_for 0.] still processes the
   events due at the current instant. *)
let advance m ~now ~events ~run_until target =
  let target_s = Dsim.Vtime.to_seconds target in
  let rec go () =
    let sec = int_of_float (Dsim.Vtime.to_seconds (now ())) in
    let next = float_of_int (sec + 1) in
    let last = next >= target_s in
    let e0 = events () in
    let h0 = Tracer.now_ns () in
    Tracer.span Run_for (fun () -> run_until (if last then target else Dsim.Vtime.of_seconds next));
    charge m sec (Tracer.now_ns () - h0) (events () - e0);
    if not last then go ()
  in
  go ()

(* Host time of work done between engine slices (a runtime tick). *)
let charge_at m ~at ns = charge m (second_closing at) ns 0

let seconds m = List.init m.used (fun i -> (m.host_ns.(i), m.events.(i)))

(* The final tenth of the run's virtual seconds (at least one). *)
let late m =
  let from = m.used - max 1 (m.used / 10) in
  let ns = ref 0 and ev = ref 0 in
  for i = from to m.used - 1 do
    ns := !ns + m.host_ns.(i);
    ev := !ev + m.events.(i)
  done;
  (!ns, !ev)
