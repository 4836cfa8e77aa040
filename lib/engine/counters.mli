(** The engine's counters: one record of aggregate counts since an
    engine's creation. Every event is counted once, in the one record
    each {!Sim.Make} engine owns; {!Sim.Make.stats} returns a snapshot.
    The type does not depend on the app, so a snapshot from any engine
    instance has this one type. *)

type t = {
  mutable events_processed : int;
  mutable messages_delivered : int;
  mutable messages_dropped : int;
  mutable messages_filtered : int;  (** dropped by steering event filters *)
  mutable messages_duplicated : int;  (** ghost copies injected by the fault layer *)
  mutable messages_corrupted : int;  (** messages garbled by the fault layer *)
  mutable messages_reordered : int;
      (** messages held back by the reorder fault (they still arrive,
          late — this counter is the only witness) *)
  mutable decode_failures : int;
      (** corrupted messages whose wire form no longer decoded; a
          subset of [messages_corrupted] (the rest were caught by the
          modelled transport checksum), all surfaced as drops *)
  mutable decisions : int;  (** choice points resolved *)
  mutable lookahead_forks : int;  (** speculative branches simulated *)
  mutable wal_appends : int;  (** write-ahead records made durable *)
  mutable snapshots : int;  (** snapshot compactions (including boot seeds) *)
  mutable recoveries : int;  (** boots that restored state from a disk *)
  mutable torn_recoveries : int;  (** recoveries that dropped a torn WAL tail *)
  mutable amnesia_wipes : int;  (** {!Sim.Make.kill_amnesia} crashes that erased a disk *)
  mutable torn_writes : int;  (** {!Sim.Make.torn_write} crashes that truncated a WAL *)
  mutable store_bytes_written : int;  (** total bytes charged to all disks *)
  mutable rel_retransmits : int;  (** reliable-delivery retransmissions performed *)
  mutable rel_acked : int;  (** tracked sends confirmed by an ack *)
  mutable rel_dup_dropped : int;
      (** arrivals suppressed by the receiver's seen-set — covers both
          our own retransmissions and Netem's duplicate fault, which
          share a sequence number *)
  mutable rel_giveups : int;  (** tracked sends abandoned after the retry budget *)
  mutable fd_recoveries : int;
      (** heartbeats that un-suspected a peer — the failure detector's
          count of observed recoveries *)
  mutable degraded_entries : int;  (** app-reported entries into degraded mode *)
  mutable degraded_exits : int;  (** app-reported exits from degraded mode *)
  mutable sheds_mailbox : int;  (** messages shed by a full bounded mailbox *)
  mutable breaker_skips : int;  (** retransmission attempts refused by an open breaker *)
  mutable chaff_sent : int;  (** synthetic messages injected by {!Sim.Make.overload} bursts *)
  mutable max_mailbox_depth : int;
      (** high-water mark of any node's mailbox since creation
          (0 until {!Sim.Make.set_overload}) *)
  mutable clock_clamped : int;
      (** timer deadlines whose global fire instant fell in the past
          (a forward {!Sim.Make.clock_step} jumped the node's clock over them)
          and were clamped to fire immediately. 0 while clocks are
          off. *)
  mutable byz_emitted : int;
      (** byzantine mutants delivered decodes-clean (Netem [Mutate]
          verdicts whose {!Wire.Mutator} candidate survived the
          re-decode guarantee) *)
  mutable byz_discarded : int;
      (** [Mutate] verdicts where no candidate survived — the
          original message was delivered unchanged instead *)
  mutable byz_rejected : int;
      (** delivered mutants bounced by the app's [validate] hook
          (surfaced as drops with cause ["invalid:<reason>"]) *)
  mutable byz_accepted : int;
      (** delivered mutants the validator let through to a handler —
          the traffic soak invariants must survive *)
}

val zero : unit -> t
(** A fresh record with every counter at 0. *)

val fields : (string * (t -> int)) list
(** Every counter by name, in declaration order. While a sink is
    attached the engine exports each as the counter [engine_<name>]. *)
