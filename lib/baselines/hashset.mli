(** Open-addressing hash set.

    Stands in for C++ [std::unordered_set] ("STL hashset"): O(1) expected
    insert and lookup, random memory access pattern, no order — so no
    efficient range queries (the property that sinks hash sets on Datalog
    workloads, Fig. 5 of the paper).  Not thread-safe. *)

module Make (K : Key.HASHABLE) : sig
  type key = K.t
  type t

  val create : ?initial_capacity:int -> unit -> t
  (** Table grows automatically at a 0.7 load factor. *)

  val insert : t -> key -> bool
  val mem : t -> key -> bool
  val cardinal : t -> int
  val is_empty : t -> bool

  val iter : (key -> unit) -> t -> unit
  (** Iteration in unspecified (hash) order. *)

  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a
  val to_list : t -> key list

  val load_factor : t -> float
  val check_invariants : t -> unit
end
