(** Lock-striped concurrent hash set.

    Stands in for Intel TBB's [concurrent_unordered_set] ("TBB hashset"): a
    thread-safe hash set with scalable concurrent insertion, the random
    memory-access pattern of hashing, and no support for ordered range
    queries.  The table is partitioned into independent segments, each an
    open-addressing table behind its own spin lock; keys are routed to
    segments by high hash bits, so unrelated inserts proceed in parallel. *)

module Make (K : Key.HASHABLE) : sig
  type key = K.t
  type t

  val create : ?segments:int -> ?initial_capacity:int -> unit -> t
  (** @param segments number of lock stripes, rounded up to a power of two
        (default 64).
      @param initial_capacity expected total elements, pre-sizing each
        segment to reduce growth stalls. *)

  val insert : t -> key -> bool
  (** Thread-safe. *)

  val mem : t -> key -> bool
  (** Thread-safe. *)

  val cardinal : t -> int
  (** Exact when quiescent; a racy sum otherwise. *)

  val iter : (key -> unit) -> t -> unit
  (** Unordered iteration; quiescent use only. *)

  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a
  val to_list : t -> key list
  val check_invariants : t -> unit
end
