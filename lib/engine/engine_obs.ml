(* The engine's metric handles and spans while a sink is attached.
   Handles are made on first use, which fixes the export's series
   order; they sit in endpoint-indexed arrays and rows, so finding one
   hashes nothing. Functions taking a [t option] do nothing on [None];
   for the others the caller matches, so it computes no argument. *)

(* The three handles every delivery touches, found in one lookup. *)
type link = {
  node_deliveries : Obs.Registry.counter;
  link_deliveries : Obs.Registry.counter;
  link_latency : Obs.Registry.histogram;
}

type t = {
  sink : Obs.Sink.t;
  queue_depth : Obs.Registry.gauge;
  deliver : link option Net.Pair_rows.t;
  mutable drops : (string * Obs.Registry.counter option Net.Pair_rows.t) list;
      (* per root cause, rows [src], columns [dst] *)
  timer_fires : Obs.Registry.counter option array;
  degraded : Obs.Registry.counter option array;  (* [2 * node], + 1 for exits *)
  fd_recoveries : Obs.Registry.counter option array;
  mailbox_depth : Obs.Registry.gauge option array;
}

(* Exports every counter as [engine_<field>], read at export time. *)
let create sink ~endpoints ~stats =
  let reg = sink.Obs.Sink.registry in
  List.iter
    (fun (name, read) ->
      Obs.Registry.probe reg ~name:("engine_" ^ name) ~labels:[] (fun () -> read (stats ())))
    Counters.fields;
  {
    sink;
    queue_depth = Obs.Registry.gauge reg ~name:"engine_queue_depth" ~labels:[];
    deliver = Net.Pair_rows.create ~absent:None;
    drops = [];
    timer_fires = Array.make endpoints None;
    degraded = Array.make (2 * endpoints) None;
    fd_recoveries = Array.make endpoints None;
    mailbox_depth = Array.make endpoints None;
  }

(* Slot [i] of [handles], made by [make registry i] on first use. *)
let first_use o handles i make =
  match handles.(i) with
  | Some h -> h
  | None ->
      let h = make o.sink.Obs.Sink.registry i in
      handles.(i) <- Some h;
      h

let node_label i = ("node", string_of_int i)

let span o ~trace ~se ~de ~kind ~enqueue ~deliver verdict =
  Obs.Span.record o.sink.Obs.Sink.spans ~trace ~src:se ~dst:de ~kind ~enqueue ~deliver ~verdict

let rec drop_rows cause = function
  | [] -> raise Not_found
  | (c, rows) :: rest -> if String.equal c cause then rows else drop_rows cause rest

(* A refused delivery: its drop counter by [cause] and its span. *)
let drop o ~cause ~trace ~se ~de ~kind ~sent_at ~now =
  let rows =
    match drop_rows cause o.drops with
    | rows -> rows
    | exception Not_found ->
        let rows = Net.Pair_rows.create ~absent:None in
        o.drops <- (cause, rows) :: o.drops;
        rows
  in
  Obs.Registry.incr
    (match Net.Pair_rows.find rows se de with
    | Some c -> c
    | None ->
        let c =
          Obs.Registry.counter o.sink.Obs.Sink.registry ~name:"engine_drops"
            ~labels:[ ("cause", cause); ("src", string_of_int se); ("dst", string_of_int de) ]
        in
        Net.Pair_rows.set rows se de (Some c);
        c);
  span o ~trace ~se ~de ~kind ~enqueue:(Dsim.Vtime.to_seconds sent_at)
    ~deliver:(Dsim.Vtime.to_seconds now) ("drop:" ^ cause)

(* A delivery to a handler over [se -> de]. *)
let delivery o ~se ~de ~latency_ms =
  let h =
    match Net.Pair_rows.find o.deliver se de with
    | Some h -> h
    | None ->
        let reg = o.sink.Obs.Sink.registry in
        let link = [ ("src", string_of_int se); ("dst", string_of_int de) ] in
        let h =
          {
            node_deliveries =
              Obs.Registry.counter reg ~name:"engine_deliveries" ~labels:[ node_label de ];
            link_deliveries = Obs.Registry.counter reg ~name:"engine_link_deliveries" ~labels:link;
            link_latency =
              Obs.Registry.histogram reg ~name:"engine_delivery_latency_ms" ~labels:link ~lo:0.
                ~hi:2000. ~buckets:20;
          }
        in
        Net.Pair_rows.set o.deliver se de (Some h);
        h
  in
  Obs.Registry.incr h.node_deliveries;
  Obs.Registry.incr h.link_deliveries;
  Obs.Registry.observe h.link_latency latency_ms

let timer_fire obs ~trace ~node ~id ~now =
  match obs with
  | None -> ()
  | Some o ->
      Obs.Registry.incr
        (first_use o o.timer_fires node (fun reg i ->
             Obs.Registry.counter reg ~name:"engine_timer_fires" ~labels:[ node_label i ]));
      let at = Dsim.Vtime.to_seconds now in
      span o ~trace ~se:node ~de:node ~kind:("timer:" ^ id) ~enqueue:at ~deliver:at "fire"

let fd_recovery obs node =
  match obs with
  | None -> ()
  | Some o ->
      Obs.Registry.incr
        (first_use o o.fd_recoveries node (fun reg i ->
             Obs.Registry.counter reg ~name:"engine_fd_recoveries" ~labels:[ node_label i ]))

let degraded obs ~node ~entering =
  match obs with
  | None -> ()
  | Some o ->
      Obs.Registry.incr
        (first_use o o.degraded ((2 * node) + if entering then 0 else 1) (fun reg slot ->
             let dir = if slot land 1 = 0 then "enter" else "exit" in
             Obs.Registry.counter reg ~name:"engine_degraded_transitions"
               ~labels:[ node_label (slot / 2); ("dir", dir) ]))

let mailbox_depth o node depth =
  Obs.Registry.set
    (first_use o o.mailbox_depth node (fun reg i ->
         Obs.Registry.gauge reg ~name:"engine_mailbox_depth" ~labels:[ node_label i ]))
    (float_of_int depth)

let queue_depth obs depth =
  match obs with None -> () | Some o -> Obs.Registry.set o.queue_depth (float_of_int depth)
