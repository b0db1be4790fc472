(** Resident Datalog query server with phase-flip admission scheduling.

    The server keeps an {!Engine} resident and turns the paper's two-phase
    access discipline into its scheduling policy: client ingest ([ASSERT]/
    [LOAD]) is only {e admitted} — logged, appended to one pending batch
    and acknowledged — while the actual write work is batched into whole
    {b writer phases}, and queries are fanned out over the worker pool as
    concurrent {b reader phases} between them.
    The two phases never overlap by construction: both run from the single
    server domain, which owns every connection, the admission queue and the
    engine: it runs on {!Reactor}, the one select loop the telemetry
    monitor runs on too (domain-confined state, no synchronisation on the
    hot path).

    {b Generations.}  A writer phase is a {e generation flip}: the pending
    batch goes to the one resident engine through the batch write path,
    and [Engine.run] evaluates only what it changes — semi-naive rounds
    seeded with the new tuples, and a recomputation of the strata that
    read a changed relation through negation or an aggregate.  Queries
    wait while ingest is pending and never run during a flip, so readers
    only ever see a fully evaluated fixed point — the FB+-tree motivation
    of keeping reads latch-free pushed to its limit.  The engine is the
    only store of base facts, kept apart from derived tuples; a fresh
    engine is built from the old one's base facts and symbol table only
    on a RULES install, on recovery and after a failed flip.

    {b Flip policy.}  A flip is triggered when pending ingest reaches
    [flip_pending] facts, when the oldest pending ingest has waited
    [flip_interval_ms], when a query arrives with ingest pending (queries
    would otherwise read stale data — this gives read-your-writes at batch
    granularity), or on shutdown.  Backpressure: beyond [max_pending]
    admitted-but-unapplied facts the server answers [ERR busy] (503-style)
    instead of queueing unboundedly.

    {b Failure containment.}  A failed flip (e.g. a chaos-injected pool
    fault, or [server.flip.fail]) leaves the engine part-way, so it is
    rebuilt from its base facts; the batch stays pending, no query is
    answered until a flip succeeds, and the flip retries on the next
    trigger.  A failed query poisons only its own response; a dropped
    connection only its session.  Phase violations are counted and exposed
    via [STATS] so tests can assert there were none.

    {b Queries.}  Each [QUERY] is one {!Relation.Reader.query}, which
    answers from the relation's own indexes (a range scan when an index
    order starts with bound columns, else a filtered scan) and never
    creates one.  [STATS] reports the cumulative tuples examined and rows
    returned as [query_examined=] and [query_rows=].

    {b Durability.}  With [data_dir] set, admissions are written through a
    {!Wal} before they are acknowledged: RULES installs and fact batches
    are appended at admission, every successful flip appends a commit
    marker once the queries waiting for it are answered, and compaction
    rewrites the log as one snapshot segment, read back from the engine's
    base facts, when it grows past a few segments.  The [durability] mode
    fixes the ack contract: [D_strict] fsyncs before every ack (an [OK]
    is durable), [D_batch] (the default) group-commits at each flip (an
    [OK] survives any crash after the next flip's commit; recovery is
    always a prefix of admission order), [D_async]/[D_none] are
    progressively weaker.  Because the answers go out before the commit,
    a [D_batch] query may see acked facts whose group commit is not yet
    on disk; under [D_strict] everything a query sees is already
    durable.  On {!start} with a
    populated [data_dir] the server recovers before serving: segments are
    scanned and checksum-verified, a torn tail is truncated silently, the
    program and facts are replayed, and the first loop iteration evaluates
    one writer phase so the recovered generation is served immediately.  A
    corrupt record outside the final segment, a lock conflict (another
    server owns the dir), or replay inconsistency makes {!start} return
    [Error] rather than serve a lossy state. *)

type config = {
  addr : Telemetry_server.addr;  (** listen address ([unix:PATH] or TCP) *)
  kind : Storage.kind;  (** relation storage backend of the engine *)
  workers : int;  (** resident pool size (evaluation + query fan-out) *)
  flip_pending : int;  (** flip the writer phase at this many pending facts *)
  flip_interval_ms : int;  (** ... or when the oldest has waited this long *)
  max_pending : int;  (** admission cap; beyond it ingest gets [ERR busy] *)
  max_clients : int;  (** concurrent sessions; beyond it connects are refused *)
  check_phases : bool;  (** assert the two-phase discipline inside eval *)
  data_dir : string option;  (** WAL directory; [None] = in-memory only *)
  durability : Wal.durability;  (** ack/fsync contract (see {!Wal}) *)
  wal_segment_bytes : int;  (** segment rotation threshold *)
  wal_compact_segments : int;  (** compact when live segments exceed this *)
}

val default_config : Telemetry_server.addr -> config
(** Btree storage, [recommended_workers] pool, flip at 256 facts / 50 ms,
    100k pending cap, 64 clients, phase checking off, no [data_dir]
    (durability [D_batch] once one is set, 8 MiB segments, compact past 4
    segments). *)

type t

val start : config -> (t, string) result
(** Bind, recover the WAL (when [data_dir] is set), spawn the server
    domain and return immediately.  [Error] on a bind failure, a data-dir
    lock conflict, a corrupt non-final WAL record, or a replay
    inconsistency — recovery failures happen on the caller's domain so a
    damaged log never half-serves.  Installs a process-wide [SIGPIPE]
    ignore (a peer closing mid-write must be a per-session error, not
    process death). *)

val bound : t -> Telemetry_server.addr
(** The actual bound address (resolves port 0). *)

val signal_stop : t -> unit
(** Ask the server to stop without waiting for it: one self-pipe write,
    safe from a signal handler.  Follow with {!wait}. *)

val stop : t -> unit
(** Graceful stop: drain in-flight responses, close every session, unlink
    a Unix-socket path, shut the pool down, join.  Idempotent. *)

val wait : t -> unit
(** Block until the server exits of its own accord (a client [SHUTDOWN])
    and release its resources.  Idempotent; [stop] after [wait] is a
    no-op. *)
