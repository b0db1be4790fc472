(** Durable fact store: a checksummed write-ahead log for {!Dl_server}.

    The two-phase discipline makes durability unusually cheap to bolt
    onto the resident server: base facts only enter the engine at a
    writer-phase generation flip, so a log of the installed program plus
    every admitted fact batch is a {e complete} replayable description
    of server state — no page images, no undo, no in-place mutation.
    The WAL is therefore a plain append-only record stream:

    {v
    segment file  = magic "DLWAL001" · record*
    record        = len:u32le · crc:u32le · type:u8 · payload[len]
    v}

    with [crc] a CRC-32 (IEEE) over [type · payload].  Record types:
    ['R'] RULES install (program source), ['F'] fact batch (relation
    name then one fact per line, protocol surface form), ['C'] a
    generation-flip commit marker, ['A'] a snapshot anchor (resets
    replay state — everything before it is superseded).

    Segments rotate at a size threshold and are compacted by streaming
    the current base facts (the server reads them back from its engine)
    into a fresh snapshot segment (anchor, program, bounded fact
    records) and unlinking everything older, so the log stays
    proportional to the live state, not to ingest history.

    Recovery ({!open_dir}) scans segments in sequence order, verifies
    every checksum and {b truncates a torn tail instead of failing}: a
    short or corrupt record in the {e final} segment is what a crash
    mid-append leaves behind, so the valid prefix is kept and the tail
    is physically cut off (counted in [rv_torn_tail] and the
    [server.wal.torn_tails] telemetry counter).  A corrupt record
    anywhere {e else} cannot be explained by a torn write and yields a
    structured error naming the segment and byte offset — the caller
    must refuse to serve rather than silently lose acked data.

    Durability modes ({!durability}) fix when {!append} forces the data
    to disk; see {!Dl_server} for the ack-ordering contract each mode
    buys.  A lock file (flock-style, [Unix.lockf] plus an in-process
    registry) makes double-starting on one data dir fail fast.

    Single-owner discipline: a [t] must only be used from one domain at
    a time (the server domain), like every other [Dl_server] structure;
    nothing in here is synchronised. *)

(** When appends reach the platters, strictest last:
    - [D_none]: never fsync — pure OS page cache, no crash guarantee.
    - [D_async]: fsync only on segment rotation, compaction and close.
    - [D_batch]: group commit — {!append} of a {!Commit} marker fsyncs,
      covering every record admitted since the previous flip (plus
      rotation/close, as [D_async]).  The default: acked-but-unflipped
      facts can be lost, but recovery is always a prefix of admission
      order ("prefix-consistent").
    - [D_strict]: every {!append} fsyncs before returning, so an ack
      sent after a successful append is durable ("exact"). *)
type durability = D_none | D_async | D_batch | D_strict

val durability_of_string : string -> durability option
(** Parse ["none" | "async" | "batch" | "strict"]. *)

val durability_name : durability -> string

val durability_choices : string
(** ["none|async|batch|strict"], for CLI docs. *)

(** One replayable log record. *)
type entry =
  | Rules of string
      (** program source exactly as installed (replays through the same
          parser; installs replace the program and drop facts of
          removed/re-declared relations, as the live path does) *)
  | Facts of string * string list
      (** relation name, one fact per line in protocol surface form
          (whitespace-separated fields; replays through
          [Dl_proto.parse_fact]) *)
  | Commit of int
      (** generation-flip marker carrying the new generation sequence;
          the group-commit fsync point under [D_batch] *)
  | Anchor of int
      (** snapshot anchor carrying the generation sequence it captures;
          replay {e resets} program and facts here — a snapshot segment
          supersedes everything before it *)

(** What {!open_dir} found in an existing data dir.  The records
    themselves are not kept: {!open_dir} hands each one to its [replay]
    callback as it is decoded. *)
type recovery = {
  rv_records : int;  (** valid records scanned (and replayed) *)
  rv_segments : int;  (** segment files scanned *)
  rv_bytes : int;  (** record bytes replayed (headers included) *)
  rv_committed_seq : int;
      (** highest {!Commit}/{!Anchor} sequence seen; [0] when none —
          the generation counter resumes from here *)
  rv_torn_tail : bool;
      (** a torn tail was truncated off the final segment (benign:
          that is what a crash mid-append leaves) *)
}

type t

val open_dir :
  ?segment_bytes:int ->
  ?compact_segments:int ->
  ?replay:(entry -> (unit, string) result) ->
  durability:durability ->
  string ->
  (t * recovery, string) result
(** [open_dir ~durability dir] creates [dir] if needed, takes its lock
    file (refusing with [Error] if another live server — in this
    process or any other — holds it), recovers existing segments per
    the module rules, and opens the last segment for appending.

    Recovery streams: each segment is read once into a buffer and each
    valid record is decoded from it and handed to [replay] at once, in
    log order ({!Anchor} = the caller resets its state); no list of the
    log is built.  A fact record's lines are copied out of the buffer
    once each.  The records of a torn final segment that precede the
    tear are replayed, then the tail is truncated.  Without [replay]
    the records are only verified and counted.  An [Error] from
    [replay] (or an exception it raises) stops recovery: the lock is
    released and [open_dir] returns [Error] naming the segment and
    offset of the record.  On any [Error] the caller must discard what
    [replay] built: it may hold records of a log that is then refused.

    [segment_bytes] (default 8 MiB) is the rotation threshold: an
    append finding the current segment past it rotates first, so
    records never straddle segments (one oversized record may overshoot
    the threshold).  [compact_segments] (default 4) is the live-segment
    count above which {!should_compact} starts answering [true].

    Errors: lock conflict, unreadable dir, a corrupt record outside the
    final segment (message names segment file and byte offset), or a
    record [replay] refused. *)

val append : t -> entry -> (unit, string) result
(** Append one record (rotating first when the segment is full) and
    apply the durability policy: fsync under [D_strict], and under
    [D_batch] when the entry is a {!Commit}.  [Error] means the record
    is {e not} durably acked — under [D_strict] the caller must answer
    ERR, not OK.  Chaos: [wal.write.short] tears the log (a prefix of
    the record is written and the handle refuses further appends until
    {!compact} rebuilds it); [wal.fsync.fail] fails the fsync step. *)

val sync : t -> (unit, string) result
(** Force an fsync now (shutdown flush, rotation); no-op under
    [D_none].  Subject to [wal.fsync.fail]. *)

val should_compact : t -> bool
(** Whether live segments exceed the compaction threshold.  The server
    checks after each flip — compacting at a flip boundary snapshots
    exactly the committed state. *)

val compact_iter :
  t ->
  ?program:string ->
  seq:int ->
  (string * ((string -> unit) -> unit)) list ->
  (unit, string) result
(** [compact_iter t ~program ~seq facts] rewrites the log as one
    snapshot segment — {!Anchor}[ seq], the program, then the facts of
    each [(rel, iter)], where [iter emit] calls [emit line] once per
    fact — written to a temp file, fsynced, atomically renamed, and only
    then are older segments unlinked, so a crash at any point leaves
    either the old log or the new one intact.

    The facts stream: relations are written in name order, each one's
    lines in the order its iterator emits them (not sorted), as a run
    of ordinary {!Facts} records whose payload is cut before it would
    pass {!snapshot_record_bytes}.  Nothing holds more than one record
    of facts at a time.  A relation that emits no line gets no record.

    [Error] (an IO failure, or an exception raised by an iterator)
    leaves the old log live and appendable and removes the temp file.
    On success, clears a chaos-torn handle: the snapshot re-establishes
    a valid log from in-memory state. *)

val compact :
  t -> ?program:string -> seq:int -> (string * string list) list ->
  (unit, string) result
(** {!compact_iter} over lists: [(rel, lines)] writes [lines] in list
    order. *)

val snapshot_record_bytes : int
(** Payload bound of a snapshot fact record (256 KiB): several
    [Dl_proto.max_line]s, so records hold whole lines, and far below
    what recovery accepts.  A record passes it only when one line
    alone does. *)

val close : t -> unit
(** Flush per the durability mode, close, release the lock.  Idempotent. *)

(** {2 Introspection} (for STATS lines; plain reads, single-owner) *)

val dir : t -> string
val durability : t -> durability

val segments : t -> int
(** Live segment files. *)

val records : t -> int
(** Records appended through this handle. *)

val appended_bytes : t -> int
val fsyncs : t -> int
val compactions : t -> int

val torn : t -> bool
(** [wal.write.short] fired and the handle refuses appends. *)
