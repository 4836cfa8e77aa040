type t = {
  mutable events_processed : int;
  mutable messages_delivered : int;
  mutable messages_dropped : int;
  mutable messages_filtered : int;
  mutable messages_duplicated : int;
  mutable messages_corrupted : int;
  mutable messages_reordered : int;
  mutable decode_failures : int;
  mutable decisions : int;
  mutable lookahead_forks : int;
  mutable wal_appends : int;
  mutable snapshots : int;
  mutable recoveries : int;
  mutable torn_recoveries : int;
  mutable amnesia_wipes : int;
  mutable torn_writes : int;
  mutable store_bytes_written : int;
  mutable rel_retransmits : int;
  mutable rel_acked : int;
  mutable rel_dup_dropped : int;
  mutable rel_giveups : int;
  mutable fd_recoveries : int;
  mutable degraded_entries : int;
  mutable degraded_exits : int;
  mutable sheds_mailbox : int;
  mutable breaker_skips : int;
  mutable chaff_sent : int;
  mutable max_mailbox_depth : int;
  mutable clock_clamped : int;
  mutable byz_emitted : int;
  mutable byz_discarded : int;
  mutable byz_rejected : int;
  mutable byz_accepted : int;
}

let zero () =
  {
    events_processed = 0;
    messages_delivered = 0;
    messages_dropped = 0;
    messages_filtered = 0;
    messages_duplicated = 0;
    messages_corrupted = 0;
    messages_reordered = 0;
    decode_failures = 0;
    decisions = 0;
    lookahead_forks = 0;
    wal_appends = 0;
    snapshots = 0;
    recoveries = 0;
    torn_recoveries = 0;
    amnesia_wipes = 0;
    torn_writes = 0;
    store_bytes_written = 0;
    rel_retransmits = 0;
    rel_acked = 0;
    rel_dup_dropped = 0;
    rel_giveups = 0;
    fd_recoveries = 0;
    degraded_entries = 0;
    degraded_exits = 0;
    sheds_mailbox = 0;
    breaker_skips = 0;
    chaff_sent = 0;
    max_mailbox_depth = 0;
    clock_clamped = 0;
    byz_emitted = 0;
    byz_discarded = 0;
    byz_rejected = 0;
    byz_accepted = 0;
  }

let fields =
  [
    ("events_processed", fun s -> s.events_processed);
    ("messages_delivered", fun s -> s.messages_delivered);
    ("messages_dropped", fun s -> s.messages_dropped);
    ("messages_filtered", fun s -> s.messages_filtered);
    ("messages_duplicated", fun s -> s.messages_duplicated);
    ("messages_corrupted", fun s -> s.messages_corrupted);
    ("messages_reordered", fun s -> s.messages_reordered);
    ("decode_failures", fun s -> s.decode_failures);
    ("decisions", fun s -> s.decisions);
    ("lookahead_forks", fun s -> s.lookahead_forks);
    ("wal_appends", fun s -> s.wal_appends);
    ("snapshots", fun s -> s.snapshots);
    ("recoveries", fun s -> s.recoveries);
    ("torn_recoveries", fun s -> s.torn_recoveries);
    ("amnesia_wipes", fun s -> s.amnesia_wipes);
    ("torn_writes", fun s -> s.torn_writes);
    ("store_bytes_written", fun s -> s.store_bytes_written);
    ("rel_retransmits", fun s -> s.rel_retransmits);
    ("rel_acked", fun s -> s.rel_acked);
    ("rel_dup_dropped", fun s -> s.rel_dup_dropped);
    ("rel_giveups", fun s -> s.rel_giveups);
    ("fd_recoveries", fun s -> s.fd_recoveries);
    ("degraded_entries", fun s -> s.degraded_entries);
    ("degraded_exits", fun s -> s.degraded_exits);
    ("sheds_mailbox", fun s -> s.sheds_mailbox);
    ("breaker_skips", fun s -> s.breaker_skips);
    ("chaff_sent", fun s -> s.chaff_sent);
    ("max_mailbox_depth", fun s -> s.max_mailbox_depth);
    ("clock_clamped", fun s -> s.clock_clamped);
    ("byz_emitted", fun s -> s.byz_emitted);
    ("byz_discarded", fun s -> s.byz_discarded);
    ("byz_rejected", fun s -> s.byz_rejected);
    ("byz_accepted", fun s -> s.byz_accepted);
  ]
