(** Simulated per-node durable storage: one snapshot area plus one
    append-only write-ahead log, with a disk model that charges fsync
    latency and write bandwidth for every write.

    The store holds opaque byte strings — applications describe {e
    what} is durable through their {!Proto.Durability} hook and the
    engine moves the encoded bytes here. On-disk WAL layout is a
    concatenation of framed records:

    {v  record := varint(length) ++ payload ++ fnv1a32(payload)  v}

    The checksum is what makes torn writes detectable: {!read} walks
    frames from the front and stops at the first incomplete or
    corrupt one, so a truncated tail degrades into "fewer records",
    never into garbage handed to the application. Snapshots model the
    write-new-then-rename discipline and are therefore atomic: only
    WAL appends can tear.

    Every operation is deterministic; the only randomness ({!tear}'s
    cut point) comes from the caller's seeded RNG. *)

type t

(** What a recovery sees: the snapshot (if any), every complete WAL
    record appended since it (oldest first), and whether a torn or
    corrupt tail was dropped on the way. *)
type recovered = { snapshot : string option; entries : string list; torn : bool }

val create : unit -> t
(** A fresh empty store. Making one write durable costs a fixed 0.5 ms
    fsync plus its bytes at 50 MB/s. *)

val copy : t -> t
(** Independent deep copy — used when a simulation forks. A snapshot
    not yet read is shared as its encoder, which each copy runs on its
    own first {!read}. *)

val is_empty : t -> bool
(** No snapshot and no WAL bytes: a disk that has never been written
    (or was wiped). *)

val append : t -> now:float -> string -> float
(** [append t ~now record] frames and appends one WAL record, then
    returns the completion delay in seconds relative to [now]
    (fsync latency + bytes/bandwidth, queued behind any write still in
    flight). Write-ahead discipline: the caller must withhold effects
    that depend on the record until the delay has elapsed. *)

val install_snapshot : t -> now:float -> bytes:int -> (unit -> string) -> float
(** [install_snapshot t ~now ~bytes make] atomically replaces the
    snapshot and truncates the WAL, returning the completion delay like
    {!append}. The write is charged [bytes] plus a 16-byte header now;
    [make] runs at most once, when {!read} first needs the snapshot,
    and must return exactly [bytes] bytes. A caller passes an encoder
    over an immutable value, so the deferred bytes are the ones an
    eager encode would have written. *)

val read : t -> recovered
(** Parses the durable area; never raises unless the deferred snapshot
    encoder does. A torn tail is dropped and flagged. *)

val wipe : t -> unit
(** Total amnesia: snapshot and WAL are erased (the crash mode where
    the disk itself is lost). Byte/latency accounting survives. *)

val tear : t -> rng:Dsim.Rng.t -> bool
(** Simulates a crash mid-append: truncates the raw WAL at a random
    point inside the last record (possibly eating its frame header).
    Returns [false] when there is no record to tear (empty WAL —
    snapshots are atomic and cannot tear). *)

(** {1 Accounting} *)

val wal_entries : t -> int
(** Complete records currently in the WAL (since the last snapshot). *)

val wal_bytes : t -> int
val snapshot_bytes : t -> int
val bytes_written : t -> int
(** Total bytes ever written to this disk, including overwritten
    snapshots and wiped logs. *)

val write_seconds : t -> float
(** Total seconds the disk has spent servicing writes. *)
