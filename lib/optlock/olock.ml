(* Optimistic read-write lock: a seqlock extended with a read-to-write
   upgrade, following section 3.1 of the paper.  The whole lock is a single
   atomic version counter; even = free, odd = write-locked.

   Protocol summary (Fig. 2 of the paper):
     start_read            : spin until even version v; lease := v
     valid lease           : version = lease
     end_read lease        : valid lease
     try_upgrade_to_write  : CAS (lease -> lease+1)
     try_start_write       : read v; even v && CAS (v -> v+1)
     start_write           : spin on try_start_write
     end_write             : version := version+1   (writer-exclusive)
     abort_write           : version := version-1   (writer-exclusive)

   end_write / abort_write use a plain atomic increment: the writer holds
   exclusivity so no CAS is needed, but the store must be atomic so readers
   obtain the release/acquire edge required by the seqlock recipe.

   The protocol itself is written once, as a functor over the four atomic
   operations it performs ({!ATOMIC}).  The default instantiation below is
   backed by [Stdlib.Atomic] and is what every runtime caller links
   against; [lib/modelcheck] instantiates the same functor over a traced
   atomic that yields to a deterministic scheduler at every operation, so
   the code being model-checked is the code that runs in production. *)

module Backoff = struct
  (* Truncated exponential backoff with seeded jitter.  The delay grows
     1, 2, 4, ... up to [ceiling] (never past it — an unbounded doubling
     would overflow into multi-second stalls under pathological contention)
     and every round adds a pseudo-random jitter in [0, current): two
     waiters created at the same instant would otherwise resonate, retrying
     in lockstep and colliding on every round.  Jitter streams are seeded
     deterministically (a global seed mixed with a per-instance counter),
     so a fixed seed replays the same delay schedule. *)
  type t = { mutable current : int; ceiling : int; mutable rng : int }

  let jitter_seed = ref 0x51AB_77E5
  let instances = Atomic.make 0

  let set_seed s = jitter_seed := s

  let mix seed salt =
    let z = (seed + ((salt + 1) * 0x9E3779B9)) land max_int in
    let z = z lxor (z lsr 16) in
    let z = z * 0x85EBCA6B land max_int in
    let z = z lxor (z lsr 13) in
    if z = 0 then 0x2545F491 else z

  let create ?(ceiling = 4096) () =
    { current = 1; ceiling; rng = mix !jitter_seed (Atomic.fetch_and_add instances 1) }

  let reset b = b.current <- 1

  let rng_next b =
    let r = b.rng in
    let r = r lxor (r lsl 13) land max_int in
    let r = r lxor (r lsr 7) in
    let r = r lxor (r lsl 17) land max_int in
    let r = if r = 0 then 0x2545F491 else r in
    b.rng <- r;
    r

  let once b =
    (* [cpu_relax] is not exposed by the stdlib; a short counted loop of
       [Domain.cpu_relax] is.  OCaml 5.1 provides Domain.cpu_relax. *)
    let spins = b.current + (rng_next b mod b.current) in
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
    if b.current < b.ceiling then begin
      let next = b.current * 2 in
      b.current <- (if next > b.ceiling then b.ceiling else next)
    end
end

(* The version counter is an [int], so the four operations below are all
   the protocol ever needs; keeping the signature minimal keeps traced
   substitutes (model checking, fault injection) small and obviously
   faithful. *)
module type ATOMIC = sig
  type t

  val make : int -> t
  val get : t -> int
  val compare_and_set : t -> int -> int -> bool
  val fetch_and_add : t -> int -> int
end

exception Protocol_violation of string

let () =
  Printexc.register_printer (function
    | Protocol_violation m -> Some (Printf.sprintf "Olock.Protocol_violation(%s)" m)
    | _ -> None)

module type S = sig
  type t
  type lease = int

  val create : unit -> t
  val start_read : t -> lease
  val valid : t -> lease -> bool
  val end_read : t -> lease -> bool
  val try_upgrade_to_write : t -> lease -> bool
  val try_start_write : t -> bool
  val start_write : t -> unit
  val end_write : t -> unit
  val abort_write : t -> unit
  val is_write_locked : t -> bool
  val version : t -> int
end

module Make (A : ATOMIC) : S = struct
  type t = { version : A.t }
  type lease = int

  let create () = { version = A.make 0 }

  let is_even v = v land 1 = 0

  (* Telemetry sites sit on the contention paths only: the uncontended fast
     paths (an even version on the first read, a successful CAS) touch no
     counter, so the cost of an event is paid exactly when the event — a spin,
     a stale lease, an abort — actually happened.  All counters are
     domain-local plain stores (see lib/telemetry). *)

  (* The backoff is built only once a writer is seen: every level of an
     optimistic descent starts a read, and [Backoff.create] allocates and
     bumps the shared [instances] counter. *)
  let start_read l =
    let v = A.get l.version in
    if is_even v then v
    else begin
      let b = Backoff.create () in
      let rec loop () =
        Telemetry.bump Telemetry.Counter.Olock_read_spins;
        Backoff.once b;
        let v = A.get l.version in
        if is_even v then v else loop ()
      in
      loop ()
    end

  let valid l lease =
    let ok = A.get l.version = lease in
    (* chaos: spuriously report a torn read, pushing the caller onto its
       restart path — the rare interleaving every optimistic correctness
       claim depends on, forced on demand *)
    let ok = ok && not (Chaos.fire Chaos.Point.Olock_validate_force_fail) in
    if not ok then Telemetry.bump Telemetry.Counter.Olock_validation_failures;
    ok

  let end_read = valid

  let try_upgrade_to_write l lease =
    let ok = A.compare_and_set l.version lease (lease + 1) in
    if not ok then Telemetry.bump Telemetry.Counter.Olock_upgrade_failures;
    ok

  let try_start_write l =
    let v = A.get l.version in
    is_even v && A.compare_and_set l.version v (v + 1)

  let start_write l =
    (* Uncontended acquisitions take the first CAS and pay no timing cost;
       only the contended path measures its wait (first failure to success)
       into the write-wait histogram. *)
    if not (try_start_write l) then begin
      let t0 = Telemetry.hist_time () in
      let b = Backoff.create () in
      Telemetry.bump Telemetry.Counter.Olock_write_spins;
      Backoff.once b;
      while not (try_start_write l) do
        Telemetry.bump Telemetry.Counter.Olock_write_spins;
        Backoff.once b
      done;
      Telemetry.hist_end Telemetry.Hist.Olock_write_wait_ns t0;
      (* The lock has no node identity; the wait itself is the evidence
         (level/bucket attribution comes from the b-tree's own events). *)
      Flight.record Flight.Ev.Lock_wait
        (if t0 > 0 then Telemetry.now_ns () - t0 else 0)
        0 0
    end

  (* Misuse detection for the release half of the protocol: releasing a lock
     that is not write-held (an even version) would silently corrupt the
     counter — an even release would hand out a "free" version that a later
     writer turns odd, wedging every reader.  The check rides on the value
     the release increment returns, so the hot path still performs exactly
     one atomic op; on a violation the increment is undone before raising
     (the transiently odd version only makes concurrent readers spin one
     extra round). *)
  let end_write l =
    let old = A.fetch_and_add l.version 1 in
    if is_even old then begin
      ignore (A.fetch_and_add l.version (-1) : int);
      raise
        (Protocol_violation
           (Printf.sprintf
              "end_write on a lock not held for writing (version %d is even)"
              old))
    end

  let abort_write l =
    let old = A.fetch_and_add l.version (-1) in
    if is_even old then begin
      ignore (A.fetch_and_add l.version 1 : int);
      raise
        (Protocol_violation
           (Printf.sprintf
              "abort_write on a lock not held for writing (version %d is even)"
              old))
    end;
    Telemetry.bump Telemetry.Counter.Olock_write_aborts

  let is_write_locked l = not (is_even (A.get l.version))
  let version l = A.get l.version
end

(* Default instantiation: the version counter is a [Stdlib.Atomic]. *)
include Make (struct
  type t = int Atomic.t

  let make = Atomic.make
  let get = Atomic.get
  let compare_and_set = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
end)

module Rwlock = struct
  (* state >= 0: number of active readers; -1: writer active *)
  type t = { state : int Atomic.t }

  let create () = { state = Atomic.make 0 }

  let try_read_lock l =
    let s = Atomic.get l.state in
    s >= 0 && Atomic.compare_and_set l.state s (s + 1)

  let read_lock l =
    let b = Backoff.create () in
    while not (try_read_lock l) do
      Backoff.once b
    done

  let read_unlock l = ignore (Atomic.fetch_and_add l.state (-1) : int)

  let try_write_lock l = Atomic.compare_and_set l.state 0 (-1)

  let write_lock l =
    let b = Backoff.create () in
    while not (try_write_lock l) do
      Backoff.once b
    done

  let write_unlock l = Atomic.set l.state 0
end

module Spin = struct
  type t = { flag : bool Atomic.t }

  let create () = { flag = Atomic.make false }

  let try_acquire l =
    (not (Atomic.get l.flag)) && Atomic.compare_and_set l.flag false true

  let acquire l =
    let b = Backoff.create () in
    while not (try_acquire l) do
      Backoff.once b
    done

  let release l = Atomic.set l.flag false

  let with_lock l f =
    acquire l;
    match f () with
    | x ->
      release l;
      x
    | exception e ->
      release l;
      raise e
end
