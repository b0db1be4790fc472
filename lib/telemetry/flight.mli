(** Flight recorder: per-domain rings of structured events with crash dumps.

    A fixed-size, allocation-free ring buffer per domain (reached through
    [Domain.DLS]) records where contention lands — olock waits, validation
    and upgrade failures tagged with node identity (tree level + root-child
    key bucket), restarts, pessimistic fallbacks, splits, phase flips, pool
    job boundaries, chaos failpoint firings, and GC major-cycle ends — so
    that tail-latency spikes and post-mortem failures are attributable.

    With the recorder disabled (the default), {!record} costs one load and
    one branch; enabled, an event is five plain stores into domain-local
    memory.  On failure the binaries drain every ring into a
    [crashdump-<seed>.json] ({!write_crashdump}) inspectable offline with
    [bin/flightrec]. *)

(** Event kinds.  Codes are the wire format (rings, dumps, traces) and are
    append-only. *)
module Ev : sig
  type t =
    | Validation_fail
        (** an optimistic descent observed a concurrent write and restarts;
            a1 = tree level (0 = root, -1 = hinted leaf), a2 = key bucket
            (root-child index, -1 = unknown) *)
    | Upgrade_fail
        (** read-to-write upgrade CAS lost; a1 = level, a2 = bucket *)
    | Restart  (** insertion restarted from the root; a1 = attempt number *)
    | Fallback
        (** optimistic retry budget exhausted, switching to the pessimistic
            descent; a1 = attempts spent *)
    | Lock_wait
        (** contended write-lock acquisition; a1 = measured wait in ns
            (recorded by the lock, which has no node identity) *)
    | Split  (** node split; a1 = level, a2 = bucket *)
    | Phase  (** relation phase flip; a1 = code, see {!phase_name} *)
    | Pool_job_start  (** a1 = worker count *)
    | Pool_job_end  (** a1 = job wall time in ns *)
    | Watchdog
        (** pool watchdog deadline exceeded at the join; a1 = wall ms,
            a2 = deadline ms *)
    | Chaos_fire  (** a failpoint fired; a1 = [Chaos.Point] index *)
    | Gc_major
        (** end of a GC major cycle on this domain; a1 = cumulative major
            collections, a2 = cumulative minor collections *)

  val all : t list
  val code : t -> int
  val of_code : int -> t option
  val name : t -> string
  val of_name : string -> t option
end

(** {1 Phase codes} (the [a1] argument of {!Ev.Phase} events) *)

val phase_write_enter : int
val phase_write_leave : int
val phase_read_enter : int
val phase_read_leave : int
val phase_name : int -> string

(** {1 Switches} *)

val enable : ?capacity:int -> unit -> unit
(** Turn the recorder on, clearing existing rings.  [capacity] is the
    per-domain ring size in events (default 4096); existing rings are
    re-sized on the next {!reset}/[enable].  Also registers the flight
    trace provider so events ride along in Chrome traces (cat ["flight"]).
    Call from quiescent code. *)

val disable : unit -> unit
val enabled : unit -> bool
val capacity : unit -> int

val reset : unit -> unit
(** Clear every ring (call quiescently). *)

(** {1 Recording (hot path)} *)

val record : Ev.t -> int -> int -> int -> unit
(** [record kind a1 a2 a3] appends an event to the calling domain's ring,
    stamping it with {!Telemetry.now_ns}.  Arguments are kind-specific
    (see {!Ev.t}); pass [0] for unused slots.  One load + one branch when
    the recorder is disabled; allocation-free when enabled (after the
    domain's ring materialises on its first event). *)

(** {1 Draining} *)

type event = {
  e_domain : int;
  e_ts : int;  (** {!Telemetry.now_ns} timestamp *)
  e_kind : Ev.t;
  e_a1 : int;
  e_a2 : int;
  e_a3 : int;
}

val events : unit -> event list
(** All surviving events across every domain's ring, oldest-first (merged
    by timestamp).  Racy-but-defined against live writers; exact when
    quiescent. *)

val recorded_total : unit -> int
(** Events ever recorded (including those overwritten by wraparound). *)

val event_args : event -> int * int * int

(** {1 Crash dumps} *)

val to_json :
  ?extra:(string * Telemetry.Json.t) list ->
  reason:string ->
  seed:int ->
  unit ->
  Telemetry.Json.t
(** The crash-dump document: schema marker, reason, seed, a counter
    snapshot, and per-domain event arrays (oldest-first, with dropped
    counts).  [extra] fields are appended to the top-level object. *)

val write_crashdump :
  ?path:string ->
  ?extra:(string * Telemetry.Json.t) list ->
  reason:string ->
  seed:int ->
  unit ->
  string
(** Write {!to_json} to [path] (default [crashdump-<seed>.json] in the
    working directory) and return the path written. *)

type dump = {
  d_reason : string;
  d_seed : int;
  d_capacity : int;
  d_counters : (string * Telemetry.Json.t) list;
  d_domains : (int * int * event list) list;
      (** (domain id, dropped count, events oldest-first) *)
}

exception Bad_dump of string

val dump_of_json : Telemetry.Json.t -> dump
(** @raise Bad_dump when the document is not a crash dump. *)

val load : string -> dump
(** Read and parse a crash-dump file.
    @raise Telemetry.Json.Parse_error on malformed JSON.
    @raise Bad_dump when the JSON is not a crash dump. *)

val dump_events : dump -> event list
(** All events of a loaded dump, merged oldest-first. *)

(** {1 Contention heatmap}

    Aggregation of flight-recorder contention events ({!event})
    into per-level × key-bucket hotspot tables: where in the tree leases
    died, upgrades lost, and splits landed.  Node identity is the (level,
    root-child bucket) pair the b-tree descent stamps onto its events;
    [(-1, -1)] marks hinted-leaf events (no descent ran). *)

val heat_classes : string array
(** Tagged event classes, in cell-count order:
    [validation_fail], [upgrade_fail], [split]. *)

type heat = {
  heat_cells : ((int * int) * int array) list;
      (** ((level, bucket), counts indexed like {!heat_classes}), sorted *)
  heat_restarts : int;  (** untagged: root restarts *)
  heat_fallbacks : int;  (** untagged: pessimistic fallbacks *)
  heat_lock_waits : int;  (** untagged: contended write acquisitions *)
  heat_lock_wait_ns : int;  (** summed measured wait of contended writes *)
}

val heat_of_events : event list -> heat

val heat_levels : heat -> (int * int array) list
(** Per-level rollup of the tagged cells, sorted by level. *)

val pp_heat : Format.formatter -> heat -> unit
val heat_to_json : heat -> Telemetry.Json.t
