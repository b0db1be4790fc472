(** The specialized concurrent B-tree of the paper (section 3) over a plain
    ordered key: {!Btree_core.Make} over {!Olock}.

    A classic in-memory B-tree specialised for parallel semi-naive Datalog
    evaluation: concurrent insertion with the optimistic fine-grained
    locking of Algorithms 1 and 2, no deletion (nodes are never freed,
    which makes optimistic reads and operation hints safe), per-domain
    operation hints (section 3.2), and two-phase usage — in every parallel
    context the tree is either exclusively written or exclusively queried.

    Readers never block; writers block only while write-locking the
    ancestor path bottom-up for a split, in strictly increasing tree-level
    order, which preserves the paper's deadlock-freedom argument. *)

module Make (K : Key.ORDERED) : Btree_core.PLAIN with type key = K.t
