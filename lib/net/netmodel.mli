(** Measured network model — the iPlane substitute (paper §3.3).

    Applications and the runtime feed passive observations (per-message
    latency samples, transfer throughputs, losses) into one shared
    store per node; any component may then ask for a prediction. Each
    estimate is an exponentially-weighted moving average tagged with
    the virtual time of its last update; {!confidence} decays with age,
    implementing the paper's "incorporate confidence in the information
    as a function of its age".

    Layout: the model is a table of rows indexed by endpoint, so the
    directed pair [(src, dst)] lives at [rows.(src).(dst)] as one
    {!link} holding its latency, bandwidth and loss cells. A lookup
    hashes nothing and allocates nothing. A row is allocated on the
    first write from its source and grown as later writes need, so a
    model costs nothing for sources that never send and nothing is
    sized to [endpoints²] up front. Reads of a pair outside every
    row, negative endpoints included, return "no estimate", exactly as
    a pair never observed. *)

type t

type estimate = {
  value : float;
  confidence : float;  (** in [0,1]; 0 = never measured or stale *)
  samples : int;
  last_update : Dsim.Vtime.t option;
}

val create : ?alpha:float -> ?half_life:float -> unit -> t
(** [alpha] is the EWMA weight of a new sample (default 0.3);
    [half_life] is the confidence half-life in virtual seconds
    (default 30.). *)

val copy : t -> t
(** Independent copy used when forking a simulation for lookahead, so
    speculative observations never pollute the real model. It copies
    each allocated row and each observed pair's cells; a fork of an
    [n]-endpoint engine copies at most [n] rows, never an [n²]
    array. *)

val observe_latency : t -> src:int -> dst:int -> Dsim.Vtime.t -> float -> unit
(** Records a one-way latency sample, in seconds.
    @raise Invalid_argument on a negative endpoint, like every
    [observe_*] that takes a pair (see {!link}). *)

val observe_bandwidth : t -> src:int -> dst:int -> Dsim.Vtime.t -> float -> unit
(** Records an achieved-throughput sample, in bytes/second. *)

val observe_loss : t -> src:int -> dst:int -> Dsim.Vtime.t -> delivered:bool -> unit
(** Records a delivery outcome; the loss estimate is an EWMA of the
    0/1 drop indicator. *)

type link
(** Handle on one directed pair's three estimate cells: the row slot
    itself. Observing through a link skips the row lookup — the
    hot-path form for a simulator recording every delivery. A link
    stays bound to the [t] that made it: {!copy} deep-copies cells, so
    a link made against the original writes to the original, never
    the copy, and a caller must resolve its links again against the
    copy. {!forget_before} and {!merge_from} write cells in place, so
    they never unbind a link. *)

val link : t -> src:int -> dst:int -> link
(** The pair's link, allocating its row and blank cells on first use;
    blank cells are invisible until the first observation. Calling it
    again returns the same link.
    @raise Invalid_argument on a negative endpoint: a node id is never
    negative, and a row cannot be indexed by one. Reads, unlike
    writes, accept any endpoint. *)

val observe_link_latency : t -> link -> Dsim.Vtime.t -> float -> unit
val observe_link_bandwidth : t -> link -> Dsim.Vtime.t -> float -> unit
val observe_link_loss : t -> link -> Dsim.Vtime.t -> delivered:bool -> unit
(** Exactly {!observe_latency} / {!observe_bandwidth} / {!observe_loss}
    on the link's pair, without the lookups. *)

val latency : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> estimate
val bandwidth : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> estimate
val loss : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> estimate

val predict_path : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> Linkprop.t option
(** Combined path prediction; [None] until a latency sample exists.
    Missing bandwidth defaults to 1 MB/s, missing loss to 0. It reads
    the cells' values and sample counts, so [now] does not change the
    result and no confidence is computed. *)

val predict_transfer_time : t -> src:int -> dst:int -> now:Dsim.Vtime.t -> bytes:int -> float option
(** Expected transfer time for a message of [bytes], inflated by the
    expected number of retries implied by the loss estimate. *)

val known_pairs : t -> (int * int) list
(** Directed pairs with at least one observation of any kind, in
    ascending order. *)

val forget_before : t -> Dsim.Vtime.t -> unit
(** Drops every estimate last updated strictly before the cutoff. *)

val merge_from : t -> t -> now:Dsim.Vtime.t -> unit
(** [merge_from dst src ~now] imports [src]'s estimates into [dst],
    keeping whichever side has higher confidence at [now] — this is how
    a node benefits from measurements shared by the information
    plane. *)
