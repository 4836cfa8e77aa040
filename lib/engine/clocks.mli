(** The engine's per-node clock table. A node without an entry reads
    the global clock; the first fault on a node creates its
    {!Dsim.Clock}, and healing removes it again. {!Sim} re-anchors the
    node's pending timers after every change. *)

type t

val create : unit -> t
(** An empty table: every node on the global clock. *)

val copy : t -> t
(** An independent deep copy, for speculative forks. *)

val find : t -> Proto.Node_id.t -> Dsim.Clock.t option

val read : t -> Proto.Node_id.t -> global:Dsim.Vtime.t -> Dsim.Vtime.t
(** The node's local reading of [global]; [global] itself without an
    entry. *)

val skew : t -> Proto.Node_id.t -> global:Dsim.Vtime.t -> float
(** [local - global] seconds; [0.] without an entry. *)

val set_rate : t -> Proto.Node_id.t -> global:Dsim.Vtime.t -> rate:float -> Dsim.Clock.t
(** Drift from [global] on, creating the entry if needed. *)

val step : t -> Proto.Node_id.t -> global:Dsim.Vtime.t -> offset:float -> Dsim.Clock.t
(** Jump by [offset] seconds at [global], creating the entry if needed. *)

val heal : t -> Proto.Node_id.t -> global:Dsim.Vtime.t -> Dsim.Clock.t option
(** Snaps the node back onto the global clock and drops its entry;
    returns the healed clock, or [None] when there was no entry. *)

val fingerprints : t -> (Proto.Node_id.t * int) list
(** Fingerprints of every non-identity clock, sorted by node. *)
