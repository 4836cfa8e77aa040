(* Unit tests for the simulated persistence layer: WAL framing,
   snapshot compaction, torn-write detection, disk-cost accounting. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A snapshot whose bytes are known up front, as an app's codec
   provides them. *)
let install s ~now snap =
  Store.install_snapshot s ~now ~bytes:(String.length snap) (fun () -> snap)

let test_empty () =
  let s = Store.create () in
  checkb "fresh store is empty" true (Store.is_empty s);
  let r = Store.read s in
  checkb "no snapshot" true (r.Store.snapshot = None);
  checki "no entries" 0 (List.length r.Store.entries);
  checkb "not torn" false r.Store.torn

let test_append_read_roundtrip () =
  let s = Store.create () in
  let records = [ "alpha"; ""; "a longer record with spaces"; "\x00\xffbinary\x01" ] in
  List.iter (fun r -> ignore (Store.append s ~now:0. r)) records;
  let r = Store.read s in
  checkb "not torn" false r.Store.torn;
  Alcotest.(check (list string)) "records in order" records r.Store.entries;
  checki "entry count" (List.length records) (Store.wal_entries s)

let test_snapshot_truncates_wal () =
  let s = Store.create () in
  ignore (Store.append s ~now:0. "old");
  ignore (install s ~now:0. "snap-state");
  ignore (Store.append s ~now:0. "new");
  let r = Store.read s in
  checks "snapshot" "snap-state" (Option.get r.Store.snapshot);
  Alcotest.(check (list string)) "only post-snapshot records" [ "new" ] r.Store.entries

let test_wipe () =
  let s = Store.create () in
  ignore (Store.append s ~now:0. "x");
  ignore (install s ~now:0. "y");
  let written = Store.bytes_written s in
  Store.wipe s;
  checkb "empty after wipe" true (Store.is_empty s);
  checki "accounting survives the wipe" written (Store.bytes_written s)

let test_write_costs () =
  let s = Store.create () in
  (* 100 kB record + frame overhead at 50 MB/s: the 2 ms transfer
     dominates the 0.5 ms fsync. *)
  let d = Store.append s ~now:0. (String.make 100_000 'x') in
  checkb "delay covers fsync" true (d >= 0.0005);
  checkb "delay covers transfer" true (d >= 0.002);
  (* A second write queues behind the first on the same disk. *)
  let d2 = Store.append s ~now:0. "y" in
  checkb "second write queues" true (d2 > d);
  checkb "seconds accounted" true (Store.write_seconds s > 0.)

let test_tear_detected () =
  let s = Store.create () in
  ignore (Store.append s ~now:0. "keep-me");
  ignore (Store.append s ~now:0. "tear-me");
  let rng = Dsim.Rng.create 42 in
  checkb "tear applies" true (Store.tear s ~rng);
  let r = Store.read s in
  checkb "tear detected" true r.Store.torn;
  Alcotest.(check (list string)) "complete prefix survives" [ "keep-me" ] r.Store.entries

let test_tear_never_corrupts_earlier_records () =
  (* Whatever the cut point, read never returns garbage: only the last
     record is at risk and every earlier one survives intact. *)
  for seed = 1 to 50 do
    let s = Store.create () in
    ignore (Store.append s ~now:0. "first");
    ignore (Store.append s ~now:0. "second");
    ignore (Store.append s ~now:0. "last-record-padding-padding");
    ignore (Store.tear s ~rng:(Dsim.Rng.create seed));
    let r = Store.read s in
    checkb (Printf.sprintf "torn flagged (seed %d)" seed) true r.Store.torn;
    Alcotest.(check (list string))
      (Printf.sprintf "prefix intact (seed %d)" seed)
      [ "first"; "second" ] r.Store.entries
  done

let test_tear_empty_wal_refused () =
  let s = Store.create () in
  checkb "nothing to tear" false (Store.tear s ~rng:(Dsim.Rng.create 1));
  ignore (install s ~now:0. "snap");
  checkb "snapshots cannot tear" false (Store.tear s ~rng:(Dsim.Rng.create 1))

let test_copy_independent () =
  let s = Store.create () in
  ignore (Store.append s ~now:0. "shared");
  let c = Store.copy s in
  ignore (Store.append c ~now:0. "only-in-copy");
  checki "original untouched" 1 (Store.wal_entries s);
  checki "copy extended" 2 (Store.wal_entries c);
  Store.wipe c;
  checkb "original survives copy wipe" false (Store.is_empty s)

(* ---------- deferred snapshots ----------

   An install is charged its bytes at once but builds them only when a
   recovery reads the disk. [counting snap] is an encoder for [snap]
   that counts its runs. *)
let counting snap =
  let runs = ref 0 in
  (runs, fun () -> incr runs; snap)

let test_deferred_charges_exact_bytes () =
  let snap = String.make 200 's' in
  let s = Store.create () in
  ignore (Store.append s ~now:0. "busy");
  let before = Store.bytes_written s in
  let runs, make = counting snap in
  let d = Store.install_snapshot s ~now:0. ~bytes:(String.length snap) make in
  (* What an eager install of [snap] charged: one 0.5 ms fsync plus the
     string and a 16-byte header at 50 MB/s, queued behind the append
     in flight. *)
  let append_delay = 0.0005 +. (float_of_int before /. 50e6) in
  let charged = String.length snap + 16 in
  Alcotest.(check (float 1e-12))
    "delay" (append_delay +. 0.0005 +. (float_of_int charged /. 50e6)) d;
  checki "bytes written" (before + charged) (Store.bytes_written s);
  checki "snapshot bytes" (String.length snap) (Store.snapshot_bytes s);
  checki "nothing encoded yet" 0 !runs

let test_deferred_encodes_once_on_read () =
  let s = Store.create () in
  let runs, make = counting "snap-state" in
  ignore (Store.install_snapshot s ~now:0. ~bytes:10 make);
  ignore (Store.append s ~now:0. "after");
  ignore (Store.wal_entries s, Store.wal_bytes s, Store.snapshot_bytes s, Store.bytes_written s);
  checkb "not empty" false (Store.is_empty s);
  checki "accounting never encodes" 0 !runs;
  let r = Store.read s in
  checks "read builds the bytes" "snap-state" (Option.get r.Store.snapshot);
  Alcotest.(check (list string)) "wal intact" [ "after" ] r.Store.entries;
  ignore (Store.read s);
  checki "encoded exactly once" 1 !runs

let test_deferred_copy () =
  let s = Store.create () in
  let runs, make = counting "shared-snap" in
  ignore (Store.install_snapshot s ~now:0. ~bytes:11 make);
  let c = Store.copy s in
  checki "copying does not encode" 0 !runs;
  let rs = Store.read s and rc = Store.read c in
  checks "original bytes" "shared-snap" (Option.get rs.Store.snapshot);
  checkb "identical bytes in both copies" true (rs.Store.snapshot = rc.Store.snapshot);
  ignore (Store.read s, Store.read c);
  checki "each copy encodes at most once" 2 !runs

let test_deferred_wipe () =
  let s = Store.create () in
  let runs, make = counting "gone" in
  ignore (Store.install_snapshot s ~now:0. ~bytes:4 make);
  Store.wipe s;
  checkb "empty after wipe" true (Store.is_empty s);
  checkb "no snapshot" true ((Store.read s).Store.snapshot = None);
  checki "snapshot bytes" 0 (Store.snapshot_bytes s);
  checki "a wiped snapshot is never encoded" 0 !runs

let test_deferred_tear () =
  let s = Store.create () in
  let runs, make = counting "base" in
  ignore (Store.install_snapshot s ~now:0. ~bytes:4 make);
  checkb "an unread snapshot cannot tear" false (Store.tear s ~rng:(Dsim.Rng.create 1));
  ignore (Store.append s ~now:0. "keep-me");
  ignore (Store.append s ~now:0. "tear-me");
  checkb "tear applies" true (Store.tear s ~rng:(Dsim.Rng.create 7));
  checki "tearing does not encode" 0 !runs;
  let r = Store.read s in
  checks "snapshot untouched" "base" (Option.get r.Store.snapshot);
  checkb "tail dropped" true r.Store.torn;
  Alcotest.(check (list string)) "prefix survives" [ "keep-me" ] r.Store.entries

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "append/read roundtrip" `Quick test_append_read_roundtrip;
          Alcotest.test_case "snapshot truncates wal" `Quick test_snapshot_truncates_wal;
          Alcotest.test_case "wipe" `Quick test_wipe;
        ] );
      ( "disk",
        [
          Alcotest.test_case "write costs" `Quick test_write_costs;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
        ] );
      ( "deferred snapshots",
        [
          Alcotest.test_case "charges exact bytes" `Quick test_deferred_charges_exact_bytes;
          Alcotest.test_case "encodes once on read" `Quick test_deferred_encodes_once_on_read;
          Alcotest.test_case "copy before read" `Quick test_deferred_copy;
          Alcotest.test_case "wipe drops it" `Quick test_deferred_wipe;
          Alcotest.test_case "tear cuts only the wal" `Quick test_deferred_tear;
        ] );
      ( "torn writes",
        [
          Alcotest.test_case "tear detected" `Quick test_tear_detected;
          Alcotest.test_case "prefix always intact" `Quick test_tear_never_corrupts_earlier_records;
          Alcotest.test_case "empty wal refused" `Quick test_tear_empty_wal_refused;
        ] );
    ]
