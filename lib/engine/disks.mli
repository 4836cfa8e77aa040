(** The engine's per-node simulated disks and the {!Proto.Durability}
    recovery contract run over them. A node's disk is created at its
    first durable boot. {!Sim} counts what these report. *)

type t

val create : unit -> t
(** No disks yet; each one created later is a {!Store.create} default
    disk. *)

val copy : t -> t
(** An independent deep copy, for speculative forks. *)

val find : t -> Proto.Node_id.t -> Store.t option
(** The node's disk, if it has one. *)

val bytes_written : t -> int
(** Total bytes charged to all disks. *)

val store_of : t -> Proto.Node_id.t -> Store.t
(** The node's disk, created on first use. *)

val install_snapshot : Store.t -> now:float -> ('state, 'msg) Proto.Durability.t -> 'state -> float
(** Compacts the disk into a snapshot of the state and returns the
    write's completion delay. The snapshot's exact size is charged
    now; it is encoded only if a recovery reads it. *)

(** What a boot found on the node's disk. *)
type 'state recovery = {
  state : 'state;  (** the boot state merged with what the disk remembered *)
  delay : float;  (** completion delay of the fresh snapshot every boot installs *)
  torn : bool;  (** the WAL ended in a torn record, which was dropped *)
  restored : bool;
      (** the state was restored from the disk; [false] for an empty
          or unreadable disk *)
}

val recover :
  t -> Proto.Node_id.t -> now:Dsim.Vtime.t -> ('state, 'msg) Proto.Durability.t -> 'state -> 'state recovery
(** Recovery (never raises — see {!Proto.Durability}): decodes the
    snapshot, folds every complete WAL record through [replay]
    (stopping at the first failure), merges into the boot state, and
    compacts the result into a fresh snapshot. An empty disk seeds an
    initial snapshot; an unreadable one degrades to amnesia. *)
