(** Phi-accrual failure detection (Hayashibara et al.) fed by passive
    heartbeats: every message the engine delivers is evidence that its
    sender was alive, and the detector learns each directed pair's
    inter-arrival rhythm with the same EWMA idiom as {!Netmodel}.

    Instead of a boolean "up/down" verdict, callers read a continuous
    {!suspicion} level in [0,1] (or the raw {!phi}): suspicion accrues
    with the age of the last arrival measured against the learned
    interval, and collapses the moment the peer is heard again.

    The detector is deterministic — pure arithmetic over virtual-time
    observations, no RNG — so attaching it never perturbs a seeded
    simulation.

    Layout: cells sit in rows indexed by endpoint, the pair
    [(observer, peer)] at [rows.(observer).(peer)] (see {!Pair_rows}),
    so a heartbeat or a read hashes nothing and allocates nothing once
    the pair has a cell. A row is allocated on the observer's first
    heartbeat and grown as later ones need; nothing is sized to
    [endpoints²] up front. Reads of a pair outside every row,
    negative endpoints included, see a pair never heard from. *)

type t

val create :
  ?alpha:float -> ?threshold:float -> ?bootstrap_interval:float -> ?min_samples:int -> unit -> t
(** [alpha] (default 0.25) is the EWMA weight for inter-arrival
    samples; [threshold] (default 8) is the phi level at which a pair
    counts as {!suspected} — phi 8 means the observed silence had
    probability 10^-8 under the learned rhythm; [bootstrap_interval]
    (default 1 s) stands in for the mean until two arrivals exist and
    also floors the learned mean afterwards — bursty application
    traffic must not teach the detector a sub-second rhythm and turn
    every inter-burst pause into a suspicion (with the defaults,
    suspicion therefore needs at least [threshold / log10 e ~= 18.4] s
    of absolute silence);
    pairs with fewer than [min_samples] (default 3) arrivals always
    report zero suspicion — sparse contact is not evidence of failure.
    @raise Invalid_argument on out-of-range parameters. *)

val copy : t -> t
(** Independent deep copy, used when forking a simulation: the
    allocated rows and the cells in them, never an [n²] array. *)

val threshold : t -> float

val heartbeat : t -> observer:int -> peer:int -> now:Dsim.Vtime.t -> bool
(** Records an arrival from [peer] observed by [observer]; returns
    [true] when the pair was suspected immediately before this arrival
    (a recovery edge). Interval samples are capped at 3x the learned
    mean so an outage cannot teach the detector that silence is
    normal.
    @raise Invalid_argument on a negative endpoint, which no node id
    can be and no row can be indexed by. *)

val phi : t -> observer:int -> peer:int -> now:Dsim.Vtime.t -> float
(** Raw suspicion accrual; 0 for unknown or under-sampled pairs. *)

val suspicion : t -> observer:int -> peer:int -> now:Dsim.Vtime.t -> float
(** [phi / threshold] clamped to [0,1]: 0 = freshly heard (or no
    evidence), 1 = suspected. *)

val suspected : t -> observer:int -> peer:int -> now:Dsim.Vtime.t -> bool
(** [phi >= threshold]. *)

val samples : t -> observer:int -> peer:int -> int
(** Arrivals recorded for the pair. *)

val known_peers : t -> observer:int -> int list
(** Peers the observer has ever heard from, ascending. *)
