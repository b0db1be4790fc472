(** Minimal index selection (the paper's companion technique, cited as
    "Optimal On The Fly Index Selection in Polynomial Time" [29]).

    A join literal whose bound column set is [S] can be answered by any
    index whose column order starts with the elements of [S] (in any
    permutation): the bound columns form a prefix, so the matching tuples
    are contiguous.  Consequently two signatures [S ⊂ T] can share a single
    index ordered [elements of S ++ elements of T\S ++ rest] — and, in
    general, every {e chain} in the subset partial order needs only one
    index.  The minimal number of indexes for a relation is therefore the
    minimum chain cover of its signature set, computed here exactly via
    maximum bipartite matching (Dilworth / König), as in the cited paper.

    A relation's primary index (the identity order) already serves every
    signature that is a prefix set of it, so {!Relation.create} passes
    only the other signatures here, and the cover is minimal over them. *)

val solve : int array list -> int array list
(** [solve sigs] computes a minimum chain cover of the given signatures
    (each a strictly increasing column array) and returns one index order
    per chain: the columns of the chain's smallest signature, then the
    increments along the chain, each in ascending order.  The order may be
    partial: the index extends it with the remaining columns.  Every
    signature's columns form a prefix of its chain's order.  Signatures may
    repeat; the empty signature is ignored. *)

val chains_lower_bound : int array list -> int
(** Size of the largest antichain in the signature set (by brute force over
    the distinct signatures; they are few).  By Dilworth's theorem the
    minimum chain cover has exactly this size — exposed for tests. *)
