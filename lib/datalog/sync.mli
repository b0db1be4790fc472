(** Confinement point for [Atomic.*] in the datalog layer.

    The linter (lib/lint, rule atomic-confinement) bans raw atomics in
    lib/datalog outside this module; engine code works with these two
    disciplined shapes instead. *)

module Counter : sig
  (** A shared monotonic-ish counter: parallel accumulators for merge
      fresh-counts and the {!Dl_stats} operation counters. *)

  type t

  val make : int -> t
  val get : t -> int

  val set : t -> int -> unit
  (** Only for single-threaded resets between runs. *)

  val incr : t -> unit
  val add : t -> int -> unit
end

module Phase_latch : sig
  (** Reader/writer phase overlap detector: writers counted in the low 20
      bits of one atomic word, readers above, so entering a phase and
      checking for the opposite phase is a single fetch-and-add with no
      window.  Its one user is [Relation]: one always-on latch per
      relation, held by every typed phase handle and every quiescent
      scan, enforces the engine's "a relation is written or read, never
      both" contract. *)

  type t

  type phase = Read | Write

  val make : unit -> t

  val try_enter : t -> phase -> bool
  (** Claim a slot in [phase]. [false] means the opposite phase is open;
      the claim has already been rolled back and the caller reports the
      violation. *)

  val leave : t -> phase -> unit
end
