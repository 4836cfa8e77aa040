(** Handler context.

    The context is the only channel through which a handler touches the
    runtime: the current virtual time, a deterministic random stream,
    the shared network model (read-only, for building features), and —
    centrally — [choose], which submits a {!Core.Choice.t} to the
    installed resolver. The [choose] field is polymorphic so one
    context serves choices over any value type.

    An engine builds one context per node, on the node's first handler
    call, and hands that same record to every later call on the node:
    it sets [now] on each entry. So a context and everything read
    through it are valid only during the call it was passed to. A
    handler must not keep one in its state or in a closure it returns;
    a kept context would read another instant's time. A speculative
    fork builds its own contexts, over its own random stream and
    resolver. *)

type t = {
  self : Node_id.t;
  mutable now : Dsim.Vtime.t;  (** the node's local reading of the current instant *)
  rng : Dsim.Rng.t;
  net : Net.Netmodel.t;
  fd : Net.Failure_detector.t;
      (** shared failure detector (read-only): suspicion levels the
          engine has accrued from passive heartbeats *)
  cb : Net.Circuit_breaker.t;
      (** shared per-pair circuit breakers (read-only): outbound-path
          health the engine has accrued from acks, retransmission
          timeouts and sheds *)
  pressure : unit -> float;
      (** queue pressure at this node in [0,1]: current mailbox depth
          over its capacity; 0 when queues are unbounded *)
  choose : 'a. 'a Core.Choice.t -> 'a;
}

(** Convenience: expected transfer time in milliseconds to [dst] for a
    [bytes]-sized message according to the network model; [default_ms]
    when the model has no data. Handlers use this to build choice
    features such as [("rtt_ms", …)]. *)
let predicted_ms ?(bytes = 512) ?(default_ms = 50.) t dst =
  match
    Net.Netmodel.predict_transfer_time t.net ~src:(Node_id.to_int t.self)
      ~dst:(Node_id.to_int dst) ~now:t.now ~bytes
  with
  | Some s -> s *. 1000.
  | None -> default_ms

(** Confidence of the latency estimate towards [dst] (0 when unknown). *)
let link_confidence t dst =
  (Net.Netmodel.latency t.net ~src:(Node_id.to_int t.self) ~dst:(Node_id.to_int dst)
     ~now:t.now)
    .Net.Netmodel.confidence

(** Suspicion level for [peer] in [0,1]: 0 = freshly heard (or no
    evidence yet), 1 = the silence has crossed the detector's phi
    threshold. The dual of {!link_confidence}: confidence decays with
    the age of what we know, suspicion accrues with the age of what we
    miss. *)
let suspicion t peer =
  Net.Failure_detector.suspicion t.fd ~observer:(Node_id.to_int t.self)
    ~peer:(Node_id.to_int peer) ~now:t.now

(** [suspicion >= 1], i.e. phi has crossed the detector threshold. *)
let suspected t peer =
  Net.Failure_detector.suspected t.fd ~observer:(Node_id.to_int t.self)
    ~peer:(Node_id.to_int peer) ~now:t.now

(** Queue pressure at this node in [0,1]: current in-flight mailbox
    depth over the configured capacity. 0 when the engine runs with
    unbounded queues, so pressure-reactive protocol branches are dead
    code on the default configuration. *)
let pressure t = t.pressure ()

(** Would the circuit breaker admit a send from this node to [dst] right
    now? [true] when the breaker towards [dst] is closed, or half-open
    with probe budget remaining. Read-only: consulting it never consumes
    a half-open probe (the engine's reliable-delivery path does that). *)
let send_allowed t dst =
  Net.Circuit_breaker.allow t.cb ~src:(Node_id.to_int t.self)
    ~dst:(Node_id.to_int dst) ~now:t.now
