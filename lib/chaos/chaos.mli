(** Deterministic failpoint registry (chaos injection).

    The optimistic protocol of the paper is validated-by-retry: its
    correctness claims rest on rare interleavings — a writer slipping
    between a read lease and its validation, a split racing a descent —
    that a normal test run almost never produces.  This registry lets the
    stress harness {e force} those interleavings on purpose: each named
    injection point ({!Point.t}) sits on a hot path and, when armed, fires
    pseudo-randomly with a configured 1-in-[rate] probability drawn from a
    deterministic per-domain stream, so a failing run replays exactly from
    its seed.

    Cost discipline: with the registry disabled (the default) every
    {!fire} call is a single relaxed atomic load plus a branch — cheap
    enough to stay compiled into release hot loops, exactly like the
    telemetry event sites.

    The library sits below every other layer (it depends on nothing), so
    olock, btree, the pool and the IO layer can all host points. *)

(** Injection point identities, one per hosted failure mode. *)
module Point : sig
  type t =
    | Olock_validate_force_fail
        (** [Olock.valid]/[end_read] spuriously report a torn read, forcing
            the caller onto its restart path *)
    | Btree_descent_yield
        (** stall an optimistic descent between lease and validation,
            widening the window in which a concurrent writer can invalidate
            it *)
    | Btree_split_delay
        (** stall inside the split critical section while the ancestor path
            is write-locked, lengthening lock hold times *)
    | Pool_job_raise
        (** raise {!Injected} inside a pool worker's job, exercising the
            pool's fault containment *)
    | Io_read_truncate
        (** truncate a fact line mid-read, simulating a torn/corrupt input
            file *)
    | Server_conn_drop
        (** drop a client connection mid-request, simulating a flaky peer or
            network — the query server must contain it to that session *)
    | Server_phase_busy
        (** force the server's admission scheduler to reject a request with
            a 503-style BUSY response, as under overload *)
    | Server_flip_fail
        (** raise {!Injected} in the middle of an engine run — a server
            generation flip — after the run's input facts were loaded and
            before the fixed point: the resident engine is left part-way
            and the server must rebuild it *)
    | Wal_write_short
        (** truncate a WAL record append partway through and mark the log
            torn, simulating a crash mid-write (a torn tail on disk) *)
    | Wal_fsync_fail
        (** make a WAL fsync raise, simulating a failed/lying disk flush *)
    | Wal_recover_corrupt
        (** bit-flip a byte of a WAL record as recovery reads it back,
            simulating on-disk corruption *)

  val all : t list
  val count : int
  val index : t -> int

  val name : t -> string
  (** Dotted lower-case name, e.g. ["olock.validate.force_fail"]. *)

  val of_name : string -> t option
end

exception Injected of string
(** Raised by {!inject} (and nothing else) when its point fires.  The
    payload names the point. *)

val active : unit -> bool
(** Whether any point is armed.  The same load {!fire} performs. *)

val seed : unit -> int
(** The seed of the current configuration ([0] when never configured). *)

val configure : ?seed:int -> (Point.t * int) list -> unit
(** [configure ~seed points] arms the given points: [(p, rate)] makes
    {!fire}[ p] return [true] with probability 1-in-[rate] ([rate >= 1];
    [rate = 1] fires every time).  Points not listed never fire.  The
    firing decisions are drawn from per-domain xorshift streams seeded
    from [seed] (default 1) mixed with the domain id, so a fixed seed and
    schedule replay the same decisions.  Fired counters are reset.
    @raise Invalid_argument on a non-positive rate. *)

val disable : unit -> unit
(** Disarm every point (back to the one-load fast path) and leave the
    fired counters readable. *)

val fire : Point.t -> bool
(** [fire p] decides whether [p] injects its failure now.  One atomic load
    + branch when the registry is disabled; when armed, a DLS lookup and
    one xorshift step.  A firing bumps the point's {!fired} counter and
    invokes the {!set_fire_hook} observer, if any. *)

val set_fire_hook : (Point.t -> unit) option -> unit
(** Install (or clear) an observer called on every firing, on the firing
    domain.  Chaos depends on nothing, so binaries use this to forward
    firings to the flight recorder.  Firings are 1-in-rate rare, so the
    hook is off the fast path; it must not raise. *)

val inject : Point.t -> unit
(** [inject p] raises {!Injected} iff [fire p].  For points whose failure
    mode is an exception ([pool.job.raise]). *)

val yield_if : Point.t -> unit
(** [yield_if p] spins briefly (a few hundred [Domain.cpu_relax]) iff
    [fire p].  For points whose failure mode is an adversarial delay
    ([btree.descent.yield], [btree.split.delay]). *)

val fired : Point.t -> int
(** Number of times [p] fired since the last {!configure}. *)

val total_fired : unit -> int

val armed_points : unit -> (Point.t * int) list
(** The currently armed points with their 1-in-rate firing rates; empty
    when disarmed.  Racy-but-defined against a concurrent [configure]
    (which quiescent code performs), so live observers — the telemetry
    server's chaos probe — may read it at any time. *)

val spec_help : string
(** One-line syntax summary of the [--chaos] spec, for CLI docs. *)

val apply_spec : string -> (unit, string) result
(** [apply_spec "seed=42,points=olock.validate.force_fail:8+pool.job.raise"]
    parses and applies a CLI chaos spec:
    - [seed=N] sets the seed (default 1);
    - [points=p1\[:rate1\]+p2\[:rate2\]+...] arms the listed points
      (default rate 16); [points=all\[:rate\]] arms every point.
    Returns [Error msg] (and arms nothing) on a malformed spec. *)

val pp_fired : Format.formatter -> unit -> unit
(** Print the per-point fired counts of the current/last configuration
    (silent when nothing ever fired). *)
