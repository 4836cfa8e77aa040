(* [Make (A)] is [A] with every function the engine, the explorer and
   the runtime call into wrapped in a {!Tracer} span: handler guards
   and bodies, timers, property checks, the durability hooks, the
   validator, the fingerprint, and the [Ctx.choose] closure handed to
   handlers. With tracing off each wrapper is one flag test before the
   original call, so traced and untraced runs execute the same app code
   and must agree on every counter. *)

module Make (A : Proto.App_intf.APP) : sig
  include Proto.App_intf.APP with type state = A.state and type msg = A.msg

  val fires : string -> int
  (** Fires of the timer [id] since the last [reset_fires]. *)

  val reset_fires : unit -> unit
end = struct
  include A

  (* Client timers that issue an operation, counted in every mode: the
     open-loop workloads count attempted operations from them. *)
  let timer_fires : (string, int ref) Hashtbl.t = Hashtbl.create 8

  let count_fire id =
    match Hashtbl.find_opt timer_fires id with
    | Some r -> incr r
    | None -> Hashtbl.add timer_fires id (ref 1)

  let fires id = match Hashtbl.find_opt timer_fires id with Some r -> !r | None -> 0
  let reset_fires () = Hashtbl.reset timer_fires

  let wrap_ctx (c : Proto.Ctx.t) : Proto.Ctx.t =
    { c with choose = (fun ch -> Tracer.choose (fun () -> c.choose ch)) }

  let init c =
    if Tracer.active () then Tracer.span Init (fun () -> A.init (wrap_ctx c)) else A.init c

  let receive =
    List.mapi
      (fun i (h : (A.state, A.msg) Proto.Handler.t) ->
        {
          h with
          guard =
            (fun st ~src m ->
              if not (Tracer.full ()) then h.guard st ~src m
              else begin
                (* Every delivery evaluates all guards, first one first. *)
                if i = 0 then Tracer.note_eval ();
                Tracer.span Guard (fun () -> h.guard st ~src m)
              end);
          handle =
            (fun c st ~src m ->
              if Tracer.active () then
                Tracer.span Handle (fun () -> h.handle (wrap_ctx c) st ~src m)
              else h.handle c st ~src m);
        })
      A.receive

  let on_timer c st id =
    count_fire id;
    if Tracer.active () then begin
      Tracer.note_eval ();
      Tracer.span Timer (fun () -> A.on_timer (wrap_ctx c) st id)
    end
    else A.on_timer c st id

  let properties =
    List.map
      (fun (p : _ Core.Property.t) ->
        {
          p with
          holds =
            (fun v -> if Tracer.full () then Tracer.span Holds (fun () -> p.holds v) else p.holds v);
        })
      A.properties

  let durable =
    Option.map
      (fun (d : (A.state, A.msg) Proto.Durability.t) ->
        {
          d with
          log =
            (fun ~prev ~next ->
              if not (Tracer.full ()) then d.log ~prev ~next
              else
                let r = Tracer.span Log (fun () -> d.log ~prev ~next) in
                Option.iter
                  (fun s ->
                    incr Tracer.log_records;
                    Tracer.log_bytes := !Tracer.log_bytes + String.length s)
                  r;
                r);
          replay =
            (fun st r ->
              if Tracer.full () then Tracer.span Replay (fun () -> d.replay st r) else d.replay st r);
          restore =
            (fun ~boot ~durable ->
              if Tracer.full () then Tracer.span Restore (fun () -> d.restore ~boot ~durable)
              else d.restore ~boot ~durable);
        })
      A.durable

  let validate =
    Option.map
      (fun f m ->
        if not (Tracer.full ()) then f m
        else
          let r = Tracer.span Validate (fun () -> f m) in
          if Result.is_error r then incr Tracer.validate_rejects;
          r)
      A.validate

  let fingerprint =
    Option.map
      (fun f st -> if Tracer.full () then Tracer.span Fingerprint (fun () -> f st) else f st)
      A.fingerprint
end
