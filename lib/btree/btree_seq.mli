(** Sequential variant of the specialized B-tree: {!Btree_core.Make} over a
    lock whose operations do nothing.

    Same code, data structure and operation hints as {!Btree}; this is the
    paper's "seq btree" contestant, isolating the cost of the optimistic
    locking scheme (compare [seq btree] vs [btree] in Fig. 3).  Not
    thread-safe. *)

module Make (K : Key.ORDERED) : Btree_core.PLAIN with type key = K.t
