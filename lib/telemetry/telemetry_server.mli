(** Live telemetry service: a monitor domain with an in-process scrape
    endpoint.

    One extra domain periodically samples the telemetry registry (counters,
    latency histograms, flight contention heat, registered gauges) into an
    allocation-bounded ring of {e windowed deltas} — so a scraper sees
    rates and recent p50/p99, not just cumulative totals since process
    start — and serves them over a minimal HTTP/1.0 listener on a TCP or
    Unix socket:

    - [/metrics]        Prometheus exposition: cumulative counters and
                        histograms plus per-window rate/quantile gauges.
                        Scrape-safe while writer phases run (snapshots are
                        racy-but-defined reads of plain per-domain shards;
                        no scrape ever takes a lock a hot path holds).
    - [/snapshot.json]  the current (most recently completed) window as
                        hand-rolled JSON: rates, deltas, window histogram
                        quantiles, gauges, heat, health.
    - [/heat]           flight contention heatmap per tree level (window
                        and whole-ring views).
    - [/health]         200/[ok] normally; 503/[degraded] on pool watchdog
                        trips or contained pool failures in the last few
                        completed windows (span 3, so slow scrapers still
                        see short-lived trips), or while a chaos drill is
                        firing; 503/[critical] after an uncontained
                        [Pool_failure] (latched until [Health.reset]).
    - [/trace]          recent flight-recorder events.

    The monitor runs entirely on its own domain: the window ring is
    domain-confined state (never shared, so it needs no synchronization —
    the discipline the R1 lint fixtures illustrate), and the only
    cross-domain traffic is the racy-but-defined sampling reads plus a
    mutex-protected provider/health registry touched on cold paths only.
    When no server is started, nothing runs and no hot path changes: the
    health hooks cost one atomic bump on cold paths (watchdog join, failure
    aggregation) that are themselves off the hot path. *)

(** {1 Addresses} *)

type addr =
  | Tcp of string * int  (** host, port; port [0] binds an ephemeral port *)
  | Unix_sock of string  (** filesystem path; unlinked on clean shutdown *)

val parse_addr : string -> (addr, string) result
(** Accepts ["unix:PATH"], ["PORT"] (binds 127.0.0.1), and ["HOST:PORT"]. *)

val addr_to_string : addr -> string

val bind_listen : addr -> Unix.file_descr * addr * string option
(** Open a listening socket (backlog 64) on [addr]: returns the fd, the
    bound address ([Tcp] carries the resolved port when given port 0) and
    the Unix socket path the owner must unlink on shutdown.  A stale
    socket file at a [Unix_sock] path is unlinked first.  Raises on
    failure, closing the fd.  Shared with {!Dl_server}'s listener. *)

(** {1 Lifecycle} *)

type t

val start :
  ?interval_ms:int -> ?window_count:int -> addr -> (t, string) result
(** Bind, listen, and spawn the monitor domain.  [interval_ms] is the
    sampling window length (default 1000, clamped to >= 10);
    [window_count] the ring capacity in windows (default 64, clamped to
    >= 2).  Returns [Error] if the address cannot be bound. *)

val bound : t -> addr
(** The actual bound address ([Tcp] with the resolved port when [start]
    was given port 0). *)

val stop : t -> unit
(** Signal the monitor domain over its self-pipe, join it, close the
    listener, and unlink the Unix socket path.  Idempotent. *)

(** {1 Extension points (cold paths)} *)

val register_gauges : string -> (unit -> (string * float) list) -> unit
(** [register_gauges group f] adds a gauge provider sampled once per
    window; each [(name, value)] pair is exposed as [group.name].  [f]
    runs on the monitor domain while writers may be live, so it must only
    perform racy-but-defined reads (e.g. [Sync.Counter] / plain-int
    reads) — never traverse shared structures. *)

val set_chaos_probe : (unit -> bool * int) option -> unit
(** Probe for chaos-drill health: returns (spec armed, cumulative
    failpoints fired).  Registered by binaries that link the chaos layer,
    so telemetry keeps zero dependencies on it. *)

(** Health inputs, bumped from the pool's cold paths and the binaries'
    failure handlers. *)
module Health : sig
  val note_watchdog_trip : unit -> unit
  (** A pool job exceeded its watchdog deadline (reported at the join). *)

  val note_pool_failure : workers:int -> unit
  (** A [Pool_failure] was aggregated at a join ([workers] = failed
      worker count); contained by the caller's retry/fallback logic. *)

  val note_uncontained : string -> unit
  (** An exception escaped containment (crash-dump path).  Latches
      [/health] to [critical] until {!reset}. *)

  val reset : unit -> unit
end

(** {1 Tiny HTTP/1.0 client}

    For tests and tooling: fetch a single path from a running server. *)

val fetch : addr -> string -> (int * string, string) result
(** [fetch addr path] returns (status code, body). *)
