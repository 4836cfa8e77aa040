(* Every disk is the same: 0.5 ms per fsync, 50 MB/s. *)
let fsync_latency = 0.0005
let bandwidth = 50_000_000.

type disk = {
  mutable busy_until : float;
  mutable bytes_written : int;
  mutable write_seconds : float;
}

type recovered = { snapshot : string option; entries : string list; torn : bool }

(* A snapshot is charged its exact length when installed, but its bytes
   are built only when a recovery reads them: [Deferred] holds the
   length and the encoder, and [read] swaps in the [Ready] string.
   Both are immutable, so a {!copy} shares them safely; each copy
   encodes at most once on its own read. *)
type snapshot = Ready of string | Deferred of { bytes : int; make : unit -> string }

type t = {
  disk : disk;
  mutable snapshot : snapshot option;
  mutable wal : Buffer.t;
  mutable entries : int;
  mutable last_start : int;  (* offset of the last appended frame; -1 = none *)
}

let create () =
  {
    disk = { busy_until = 0.; bytes_written = 0; write_seconds = 0. };
    snapshot = None;
    wal = Buffer.create 256;
    entries = 0;
    last_start = -1;
  }

let copy t =
  let wal = Buffer.create (Buffer.length t.wal) in
  Buffer.add_buffer wal t.wal;
  { t with disk = { t.disk with busy_until = t.disk.busy_until }; wal }

let is_empty t = Option.is_none t.snapshot && Buffer.length t.wal = 0

(* One durable write: starts when the disk frees up, costs one fsync
   plus the transfer time of [bytes]; the returned delay is what the
   caller's effects must wait for (write-ahead discipline). *)
let write d ~now ~bytes =
  let start = Float.max now d.busy_until in
  let dur = fsync_latency +. (float_of_int bytes /. bandwidth) in
  d.busy_until <- start +. dur;
  d.bytes_written <- d.bytes_written + bytes;
  d.write_seconds <- d.write_seconds +. dur;
  start +. dur -. now

(* ---------- framing: varint(length) ++ payload ++ fnv1a32 ---------- *)

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Returns (value, next position), or None if the bytes run out. *)
let read_varint s pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len || shift > 56 then None
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let fnv1a32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let add_checksum buf payload =
  let h = fnv1a32 payload in
  Buffer.add_char buf (Char.chr (h land 0xff));
  Buffer.add_char buf (Char.chr ((h lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((h lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((h lsr 24) land 0xff))

let checksum_at s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let append t ~now record =
  t.last_start <- Buffer.length t.wal;
  add_varint t.wal (String.length record);
  Buffer.add_string t.wal record;
  add_checksum t.wal record;
  t.entries <- t.entries + 1;
  write t.disk ~now ~bytes:(Buffer.length t.wal - t.last_start)

(* Snapshots model write-new-then-rename: the write is charged, the
   replacement is atomic, and the WAL restarts empty. *)
let install_snapshot t ~now ~bytes make =
  t.snapshot <- Some (Deferred { bytes; make });
  Buffer.clear t.wal;
  t.entries <- 0;
  t.last_start <- -1;
  write t.disk ~now ~bytes:(bytes + 16)

let snapshot_string t =
  match t.snapshot with
  | None -> None
  | Some (Ready s) -> Some s
  | Some (Deferred { make; _ }) ->
      let s = make () in
      t.snapshot <- Some (Ready s);
      Some s

let read t =
  let raw = Buffer.contents t.wal in
  let len = String.length raw in
  let rec go pos acc =
    if pos = len then (List.rev acc, false)
    else
      match read_varint raw pos with
      | None -> (List.rev acc, true)
      | Some (n, body) ->
          if n < 0 || body + n + 4 > len then (List.rev acc, true)
          else
            let payload = String.sub raw body n in
            if checksum_at raw (body + n) <> fnv1a32 payload then (List.rev acc, true)
            else go (body + n + 4) (payload :: acc)
  in
  let entries, torn = go 0 [] in
  ({ snapshot = snapshot_string t; entries; torn } : recovered)

let wipe t =
  t.snapshot <- None;
  Buffer.clear t.wal;
  t.entries <- 0;
  t.last_start <- -1

let tear t ~rng =
  let len = Buffer.length t.wal in
  if t.last_start < 0 || len = 0 then false
  else begin
    (* Cut strictly inside the last frame: at least one of its bytes is
       lost, at most the whole frame. *)
    let cut = t.last_start + Dsim.Rng.int rng (len - t.last_start) in
    Buffer.truncate t.wal cut;
    t.entries <- t.entries - 1;
    t.last_start <- -1;
    true
  end

let wal_entries t = t.entries
let wal_bytes t = Buffer.length t.wal

let snapshot_bytes t =
  match t.snapshot with
  | None -> 0
  | Some (Ready s) -> String.length s
  | Some (Deferred { bytes; _ }) -> bytes

let bytes_written t = t.disk.bytes_written
let write_seconds t = t.disk.write_seconds
