(** Key signatures and ready-made key types for the set data structures.

    Datalog relations are sets of fixed-arity integer tuples ordered
    lexicographically (paper, section 2).  Every container in this
    reproduction — the concurrent B-tree, its sequential variant, the
    baselines and the alternative trees — is a functor over one of these
    signatures, so the same key types are used by all contestants of a
    benchmark. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
  (** Total order; the 3-way comparator the paper tunes for tuples. *)

  val dummy : t
  (** An arbitrary value used to initialise array slots.  Never observed
      through the public API. *)

  val to_string : t -> string
  (** Debug/diagnostic rendering. *)
end

module type HASHABLE = sig
  include ORDERED

  val hash : t -> int
  (** Hash consistent with [compare]: equal keys hash equally. *)

  val equal : t -> t -> bool
end

module Int : HASHABLE with type t = int
(** Single integers — the key type of Table 3 (32-bit integer workload). *)

module Pair : HASHABLE with type t = int * int
(** 2D points under lexicographic order — the key type of Fig. 3 and
    Fig. 4 ("2D data is the most relevant case in many Datalog queries"). *)

module Int_array : sig
  include HASHABLE with type t = int array

  val compare_columns : int array -> t -> t -> int
  (** [compare_columns order] compares tuples lexicographically over the
      columns [order] (a permutation of an index's columns, bound columns
      first): the comparator of every tuple index.  Apply it to [order]
      once; the result is specialised to it (a dedicated body for two
      columns) and allocates nothing per call. *)
end
(** Fixed-arity integer tuples under lexicographic order — the key type used
    by the Datalog engine's relations.  Tuples of different lengths are
    ordered by comparing the common prefix first, then by length, so a proper
    prefix sorts before its extensions (which makes prefix range scans
    natural). *)

val mix64 : int -> int
(** A finalizing 64-bit mixer (splitmix64 finalizer); building block for the
    hash functions above and for user-defined key types. *)
