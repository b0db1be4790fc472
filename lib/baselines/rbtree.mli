(** Mutable red-black tree set.

    Stands in for C++ [std::set] ("STL rbtset" in the paper's figures): a
    balanced binary search tree with one heap node per element, i.e. the
    pointer-chasing memory behaviour the paper contrasts with the B-tree's
    cache-friendly node layout.  Not thread-safe. *)

module Make (K : Key.ORDERED) : sig
  type key = K.t
  type t

  val create : unit -> t
  val insert : t -> key -> bool
  (** [insert t k] adds [k]; [true] iff it was absent. *)

  val mem : t -> key -> bool
  val cardinal : t -> int
  (** O(1): the tree maintains a counter. *)

  val is_empty : t -> bool
  val min_elt : t -> key option
  val max_elt : t -> key option
  val lower_bound : t -> key -> key option
  val upper_bound : t -> key -> key option
  val iter : (key -> unit) -> t -> unit
  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a
  val iter_from : (key -> bool) -> t -> key -> unit
  (** In-order from the first element [>= k], until the callback returns
      [false]. *)

  val to_list : t -> key list

  val check_invariants : t -> unit
  (** BST order, no red node with a red child, equal black height on all
      paths, black root.  @raise Failure on violation. *)

  val insert_batch : t -> key array -> int
  (** Insert a sorted run (non-decreasing; duplicates skipped); returns the
      fresh-element count.  No amortisation here — a validated insert loop,
      the batch path of the sorted index factory in [Storage.Index].
      @raise Invalid_argument when the run is not sorted. *)
end
