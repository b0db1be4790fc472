(** Domain-local telemetry: sharded counters, phase timers, Chrome traces.

    The subsystem exists to make the paper's quantitative claims observable
    without perturbing them: every counter lives in a per-domain shard (a
    plain mutable record reached through [Domain.DLS]), so the hot path
    performs {e no} shared atomic write — the same cache-line argument the
    optimistic lock itself is built on.  Aggregation across shards happens
    only when {!snapshot} or {!export_trace} is called.

    Every event site is gated on a master flag: with telemetry disabled
    (the default) an instrumented call costs one load and one branch, so
    instrumentation stays compiled into release builds.

    Enable/disable and reset are meant to be called from quiescent code
    (before and after parallel sections).  Snapshots taken while domains are
    running are racy-but-defined reads of plain integers. *)

val now_ns : unit -> int
(** Monotonic clock (CLOCK_MONOTONIC), in nanoseconds from an arbitrary
    epoch.  Allocation-free. *)

(** Minimal JSON document type with emitter and parser — enough for trace
    files, bench metrics, and parse-back validation in tests and CI
    (no external JSON library is available in this environment). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val output : out_channel -> t -> unit

  exception Parse_error of string

  val of_string : string -> t
  (** @raise Parse_error on malformed input. *)

  val member : string -> t -> t option
end

(** Counter identities, one flat namespace across the instrumented layers.
    See the Observability section of DESIGN.md for exact semantics of
    "abort" vs "restart" at each layer. *)
module Counter : sig
  type t =
    | Olock_read_spins
        (** backoff rounds spent in [start_read] waiting out a writer *)
    | Olock_write_spins
        (** backoff rounds spent in [start_write] waiting for the lock *)
    | Olock_validation_failures
        (** [valid]/[end_read] returning [false]: an optimistic read
            observed a concurrent write and must be discarded *)
    | Olock_upgrade_failures
        (** failed [try_upgrade_to_write] CAS: the lease went stale between
            the read phase and the upgrade *)
    | Olock_write_aborts
        (** [abort_write] calls: write permits released without modification *)
    | Btree_restarts
        (** insertions restarted from the root after a failed validation or
            upgrade during optimistic descent *)
    | Btree_pessimistic_fallbacks
        (** descents that exhausted the optimistic retry budget and fell
            back to the pessimistic write-locked descent; [0] in healthy
            non-chaos runs ([bench --smoke] fails otherwise) *)
    | Btree_leaf_splits
    | Btree_inner_splits
    | Btree_root_splits  (** splits that grew the tree by one level *)
    | Btree_hint_hits
    | Btree_hint_misses
    | Btree_batch_keys
        (** keys offered to the sorted-run batch insert path *)
    | Btree_batch_leaves
        (** leaf write-lock acquisitions of the batch path (descents plus
            hint hits) — the amortisation denominator of
            [Btree_batch_keys] *)
    | Btree_batch_splices
        (** bulk gap splices performed by the batch path (each one inserts
            a run of consecutive keys with two blits) *)
    | Pool_jobs  (** fork-join jobs executed *)
    | Pool_busy_ns  (** summed per-worker busy time inside jobs *)
    | Pool_wall_ns
        (** summed job wall time × worker count, so that
            [Pool_busy_ns / Pool_wall_ns] is pool utilisation *)
    | Pool_watchdog_trips
        (** pool jobs whose wall time exceeded the pool's watchdog deadline
            (see [Pool.set_watchdog]) *)
    | Eval_iterations  (** semi-naive fixed-point rounds *)
    | Eval_rule_evals  (** rule-version evaluations *)
    | Eval_delta_tuples  (** tuples promoted from new into full relations *)
    | Io_malformed_lines
        (** corrupt/truncated fact lines skipped by [Dl_io]'s lenient
            loader *)
    | Server_requests  (** protocol requests admitted by the query server *)
    | Server_busy_rejections
        (** requests rejected with a 503-style BUSY response (admission
            backpressure or a chaos drill) *)
    | Server_phase_flips
        (** writer-phase flips: engine generation rebuilds performed by the
            server's admission scheduler *)
    | Server_conns  (** client connections accepted by the query server *)
    | Server_query_examined
        (** tuples examined answering [QUERY]s: those the serving index
            handed to the per-tuple pattern check *)
    | Server_query_rows  (** rows returned by [QUERY] answers *)
    | Wal_bytes  (** bytes appended to the write-ahead log *)
    | Wal_records  (** records appended to the write-ahead log *)
    | Wal_fsyncs  (** fsync calls issued by the write-ahead log *)
    | Wal_segments
        (** WAL segment files created (initial open plus rotations) *)
    | Wal_compactions
        (** snapshot compactions: fact store rewritten as a snapshot
            segment, older segments truncated *)
    | Wal_torn_tails
        (** torn tails silently truncated during WAL recovery — a crash
            mid-append leaves one, and recovery discards it by design *)
    | Wal_replayed_records  (** WAL records replayed during recovery *)

  val all : t list
  val index : t -> int
  val count : int
  val name : t -> string
  (** Dotted lower-case name, e.g. ["olock.upgrade_failures"]. *)

  type unit_kind = Count | Nanoseconds

  val unit_of : t -> unit_kind
  (** Unit of a counter's value: plain event count, or accumulated
      nanoseconds ({!Pool_busy_ns}, {!Pool_wall_ns}).  Exporters render
      nanosecond counters as durations/seconds, not raw counts. *)

  val help : t -> string
  (** One-line description for exporters (Prometheus [# HELP] lines). *)
end

(** Latency histogram identities: log-linear (HDR-style) bucketed latency
    distributions recorded per domain and merged at {!snapshot} time.
    B-tree per-op sites are sampled (1 in [2^sample_shift] ops, decided by a
    deterministic per-shard xorshift stream); coarse sites record every
    event. *)
module Hist : sig
  type t =
    | Btree_insert_ns  (** sampled [insert] latency *)
    | Btree_find_ns  (** sampled [mem]/[find] latency *)
    | Btree_bound_ns  (** sampled [lower_bound]/[upper_bound] latency *)
    | Btree_batch_ns
        (** [insert_batch] call latency (one event per sorted run or merge
            partition; unsampled) *)
    | Btree_fallback_ns
        (** pessimistic fallback descent latency (unsampled — fallbacks are
            cold by construction) *)
    | Olock_write_wait_ns
        (** contended write acquisitions only: time from first failed
            [try_start_write] to acquisition *)
    | Pool_job_ns  (** fork-join job wall time *)
    | Eval_iteration_ns  (** semi-naive fixed-point round wall time *)
    | Server_ingest_ns
        (** ingest service latency: admission to the end of the writer phase
            that applied the facts (unsampled) *)
    | Server_query_ns
        (** query service latency: admission to response (unsampled) *)
    | Server_flip_ns
        (** writer-phase flip duration — one engine generation rebuild
            (unsampled) *)
    | Wal_append_ns  (** WAL record append latency (unsampled) *)
    | Wal_fsync_ns  (** WAL fsync latency (unsampled) *)

  val all : t list
  val index : t -> int
  val count : int

  val name : t -> string
  (** Dotted lower-case name, e.g. ["btree.insert_ns"]. *)

  val help : t -> string
  (** One-line description for exporters (Prometheus [# HELP] lines). *)

  val sample_shift : t -> int
  (** Record 1 in [2^shift] events; [0] = record every event. *)

  val bucket_count : int

  val bucket_of_value : int -> int
  (** Bucket index of a nanosecond value (negative values clamp to 0; huge
      values clamp to the top bucket).  Exact below [2^3]; above, each
      power-of-two octave splits into 8 sub-buckets (relative error <= 1/8). *)

  val bucket_bounds : int -> int * int
  (** [bucket_bounds b] is the half-open value range [\[lo, hi)] of bucket
      [b]; contiguous across consecutive buckets. *)
end

(** {1 Switches} *)

val enable : ?tracing:bool -> unit -> unit
(** Turn counters on; [~tracing:true] additionally records trace events. *)

val disable : unit -> unit
val enabled : unit -> bool
val tracing : unit -> bool

val reset : unit -> unit
(** Zero all counters and drop buffered trace events (call quiescently). *)

(** {1 Event sites (hot path)} *)

val bump : Counter.t -> unit
(** Increment a counter in the calling domain's shard.  One load + branch
    when telemetry is disabled. *)

val add : Counter.t -> int -> unit

(** {1 Latency histograms (hot path)} *)

val hist_start : Hist.t -> int
(** Sampling decision plus timestamp.  Returns [0] (meaning "not sampled")
    when telemetry is disabled — one load + one branch — or when the
    per-shard sampling stream skips this event; otherwise the current
    {!now_ns}. *)

val hist_end : Hist.t -> int -> unit
(** [hist_end m t0] records [now_ns () - t0] into [m] if [t0 > 0] (i.e. the
    matching {!hist_start} sampled); no-op otherwise. *)

val hist_time : unit -> int
(** Unsampled variant of {!hist_start} for sites that time conditionally
    (e.g. only the contended path): {!now_ns} when enabled, else [0]. *)

val hist_record : Hist.t -> int -> unit
(** Record an already-measured duration (ns) directly, e.g. a job wall time
    that was computed anyway.  Negative durations clamp to 0. *)

val set_hist_seed : int -> unit
(** Set the seed of the deterministic sampling streams and reseed existing
    shards; {!reset} also reseeds, so [set_hist_seed s; reset ()] makes a
    single-domain run reproduce its sample set exactly. *)

(** {1 Phase timers / spans} *)

type arg_value = A_int of int | A_float of float | A_string of string

val with_span :
  ?tid:int ->
  ?args:(string * arg_value) list ->
  ?cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] and, when tracing, records a complete span
    covering it (monotonic timestamps).  Exceptions still end the span.
    [tid] overrides the trace lane (defaults to the domain id). *)

val span_start : unit -> int
(** Timestamp for a manual span; [0] when tracing is off. *)

val span_end :
  ?tid:int ->
  ?args:(string * arg_value) list ->
  ?cat:string ->
  string ->
  int ->
  unit
(** [span_end name t0] closes a manual span opened at [span_start ()].
    No-op if [t0 = 0]. *)

val instant :
  ?tid:int -> ?args:(string * arg_value) list -> ?cat:string -> string -> unit

val counter_sample : ?cat:string -> string -> int -> unit
(** Record a timeline counter sample ("C" event) for Perfetto graphs. *)

(** {1 Aggregation} *)

type hist = {
  h_counts : int array;  (** length {!Hist.bucket_count}, merged over shards *)
  h_total : int;  (** number of recorded samples *)
  h_sum : int;  (** summed nanoseconds *)
  h_max : int;  (** exact maximum (not bucketed) *)
}

type snapshot = {
  per_domain : (int * int array) list;
      (** (domain id, counts indexed by {!Counter.index}), all-zero shards
          omitted, sorted by domain id *)
  totals : int array;
  hists : hist array;  (** indexed by {!Hist.index} *)
}

val snapshot : unit -> snapshot
val get : snapshot -> Counter.t -> int
val hist_of : snapshot -> Hist.t -> hist

val hist_quantile : hist -> float -> int
(** [hist_quantile h q] estimates the [q]-quantile (midpoint of the bucket
    holding the rank-[q] sample, clamped to [h.h_max]); [0] when empty. *)

val hist_mean : hist -> float

val hint_hit_rate : snapshot -> float
(** Hits / (hits + misses) over the btree hint counters; [0.] when no
    hinted operation ran. *)

val imbalance : snapshot -> float
(** Pool utilisation proxy: summed worker busy time over summed job wall
    time.  1.0 = perfectly balanced; lower = workers idling. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

(** {1 Export} *)

val register_trace_provider : (unit -> Json.t list) -> unit
(** Register a function contributing ready-made trace-event objects to
    {!trace_json} at export time (used by the flight recorder to append
    its events to Chrome traces without a reverse dependency). *)

val trace_json : ?process_name:string -> unit -> Json.t
(** The Chrome trace-event document ({v {"traceEvents": [...]} v}) holding
    all buffered spans plus final counter samples. *)

val export_trace : ?process_name:string -> string -> unit
(** Write {!trace_json} to a file (open in Perfetto / chrome://tracing). *)

val counters_json : snapshot -> Json.t
(** Counters as a flat object; nanosecond counters appear in seconds under
    an ["_s"]-suffixed name (e.g. ["pool.busy_s"]). *)

val histograms_json : snapshot -> Json.t
(** Non-empty histograms as an object keyed by {!Hist.name}: count,
    sample_period, sum/mean/p50/p90/p99/max (ns), and the nonzero buckets
    as [\[lo, hi, count\]] triples. *)

val event_count : unit -> int

(** {1 Prometheus text exposition}

    A tiny builder for the Prometheus text format (HELP/TYPE headers emitted
    once per metric family, label escaping, gauge/counter lines), used by
    [datalog_cli --metrics FILE]. *)
module Prom : sig
  type t

  val create : unit -> t

  val counter :
    t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

  val gauge :
    t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

  val to_string : t -> string
end

val prometheus_of_snapshot : ?prefix:string -> Prom.t -> snapshot -> unit
(** Append a snapshot to a {!Prom.t} builder: every counter as
    [<prefix>_<name>_total] (nanosecond counters as [_seconds_total] in
    seconds), derived gauges, and each non-empty histogram as a Prometheus
    histogram (cumulative [le] buckets, [_sum], [_count]) plus
    [_p50]/[_p90]/[_p99]/[_max] gauges.  Default prefix ["repro"]. *)
