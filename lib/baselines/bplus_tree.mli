(** Sequential B+-tree with binary-searched nodes and linked leaves.

    Stands in for Google's btree container ("google btree" in the paper): a
    highly tuned, thread-unsafe, cache-friendly ordered set.  It differs from
    the specialized B-tree on purpose — elements live only in leaves, inner
    nodes hold separator copies, nodes are binary-searched and leaves are
    chained for fast scans — so the comparison measures our tree against an
    independently designed state-of-the-art layout.

    Used directly as the "google btree (global lock)" parallel contestant
    (wrapped in {!Locked_set}) and as the per-thread structure of the
    reduction baseline ({!Reduction_set}). *)

module Make (K : Key.ORDERED) : sig
  type key = K.t
  type t

  val create : ?node_capacity:int -> unit -> t
  val insert : t -> key -> bool
  val mem : t -> key -> bool
  val cardinal : t -> int
  (** O(1); maintained counter (safe here: the structure is sequential). *)

  val is_empty : t -> bool
  val min_elt : t -> key option
  val max_elt : t -> key option
  val lower_bound : t -> key -> key option
  val upper_bound : t -> key -> key option
  val iter : (key -> unit) -> t -> unit
  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a
  val iter_from : (key -> bool) -> t -> key -> unit
  val to_list : t -> key list
  val to_sorted_array : t -> key array

  val of_sorted_array : ?node_capacity:int -> key array -> t
  (** Bulk-build from a strictly increasing array; O(n). *)

  val check_invariants : t -> unit

  val insert_batch : t -> key array -> int
  (** Insert a sorted run (non-decreasing; duplicates skipped); returns the
      fresh-element count.  A validated insert loop, the batch path of the
      sorted index factory in [Storage.Index].
      @raise Invalid_argument when the run is not sorted. *)
end
