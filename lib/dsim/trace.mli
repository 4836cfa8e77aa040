(** Bounded in-memory trace of simulation events.

    Each record carries the virtual time at which it was produced, a
    severity, a component tag (e.g. ["engine"], ["steering"]) and a
    message. Tests read traces back through {!records} and {!find};
    the simulator itself never reads them.

    Cost. A record below the minimum level is dropped without running
    its formatter: a gated {!logf} consumes its arguments and allocates
    nothing. Engines trace at [Debug] by default, though, so on the
    default path every site passes the gate and pays for its text.
    {!logf} formats into one reused per-domain formatter rather than a
    fresh [Format.kasprintf] buffer per record. {!logp} defers even
    that: it stores the printer, and {!records} runs it on first read.
    Use it for hot sites whose arguments are immutable, since the
    printer keeps them alive for as long as the record is retained. *)

type level = Debug | Info | Warn | Error

type record = { time : Vtime.t; level : level; component : string; message : string }

type t

val create : ?capacity:int -> ?min_level:level -> unit -> t
(** [capacity] bounds the number of retained records (default 100_000);
    the oldest records are discarded first.  Records below [min_level]
    (default [Debug], i.e. everything passes) are counted in
    {!suppressed} and otherwise dropped without formatting. *)

val min_level : t -> level
val set_min_level : t -> level -> unit

val enabled : t -> level -> bool
(** Whether a record at this level would currently be retained. *)

val suppressed : t -> int
(** Records dropped by the level gate since creation. *)

val log : t -> Vtime.t -> level -> component:string -> string -> unit

val logf :
  t -> Vtime.t -> level -> component:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!log} but lazy about formatting: when the level is gated the
    format arguments are consumed without being rendered. The message
    is the text [Format.asprintf] would give for the same format and
    arguments. *)

val logp : t -> Vtime.t -> level -> component:string -> (Format.formatter -> unit) -> unit
(** Print on read: records the printer instead of its text. The
    message {!records} returns is what [logf t time level ~component
    "%t" print] would have recorded, provided everything [print] reads
    is immutable. A gated record never runs its printer. *)

val records : t -> record list
(** Retained records, oldest first. Runs the printer of each {!logp}
    record not read before, once. *)

val count : t -> int
(** Total records ever logged, including discarded ones (but not
    level-suppressed ones). *)

val find : t -> component:string -> substring:string -> record list
(** Retained records from [component] whose message contains
    [substring]. *)

val contains_substring : string -> string -> bool
(** [contains_substring haystack needle] — allocation-free scan; the
    empty needle matches everything.  Exposed for tests and reuse. *)

val level_to_string : level -> string

val pp_record : Format.formatter -> record -> unit
