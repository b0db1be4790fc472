(** Pluggable tuple storage for Datalog relations.

    A relation is represented by one or more {e indexes}.  Every index holds
    the full tuples of its relation; an index with signature [cols] supports
    enumerating all tuples whose values at the columns [cols] equal given
    bound values (the access pattern of a join literal whose [cols] are bound
    when it executes).  The primary index (empty signature) additionally
    provides full-tuple membership, deduplicating insertion and whole-relation
    scans.

    Ordered storage kinds implement signature scans with a tree ordered by
    [cols]-major lexicographic comparison (lower_bound + in-order scan —
    exactly the paper's B-tree usage); hash-based kinds implement them with a
    hash multimap from bound values to tuples, since hashes cannot perform
    ordered range scans (footnote in DESIGN.md).

    Thread-safety contract, matching the two-phase discipline of parallel
    semi-naive evaluation: a cursor's [c_insert] must be safe against
    concurrent [c_insert]s {e when the kind is flagged thread-safe}; a
    relation serialises inserts through its own mutex for the other kinds
    (the paper's "global lock" configurations).  Queries are only ever
    concurrent with queries: {!Relation}'s phase latch, the one check of
    that discipline, guards every index reached through a relation. *)

type kind =
  | Btree          (** the paper's tree, with operation hints *)
  | Btree_nohints  (** ablation: same tree, hints disabled *)
  | Rbtree         (** red-black tree — "STL rbtset" *)
  | Hashset        (** open-addressing hash — "STL hashset" *)
  | Bplus          (** sequential B+-tree — "google btree" *)
  | Tbb_hash       (** lock-striped concurrent hash — "TBB hashset" *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

val kind_choices : string
(** The canonical spelling of every kind, comma-separated in {!all_kinds}
    order (["btree, btree-nohints, ..."]), for CLI docs and errors. *)

val thread_safe_insert : kind -> bool
(** Whether [c_insert] may be called concurrently without external
    locking. *)

val shares_indexes : kind -> bool
(** Whether one physical index can serve every signature on a containment
    chain (tree kinds, via an explicit [order]); hash multimaps serve
    exactly one signature each.

    All per-kind metadata ([kind_name], {!kind_choices},
    {!thread_safe_insert}, this) is answered by one internal backend table
    — a first-class module per kind also holding its index factory —
    rather than per-call matches.  The six kinds share three factories:
    the specialized tuple B-tree (both B-tree kinds), a sorted factory
    over an ordered set functor (rbtree, bplus), and a hash factory over a
    hash set (hashset, tbb). *)

module Index : sig
  type t

  val create :
    kind ->
    arity:int ->
    cols:int array ->
    ?order:int array ->
    stats:Dl_stats.t option ->
    unit ->
    t
  (** [cols] is the signature: strictly increasing column indices, possibly
      empty (primary).  When [stats] is given, operations count into it.

      [order], accepted by the ordered (tree) kinds, overrides the index's
      comparison order with an explicit column permutation; it must contain
      [cols] within its prefix.  This is how several signatures forming a
      containment chain share one physical index ({!Index_selection}): any
      signature whose columns form a prefix set of [order] can be scanned on
      this index.  Hash kinds ignore [order] (a hash multimap serves exactly
      one signature). *)

  val merge : ?pool:Pool.t -> t -> int array array -> int
  (** [merge ?pool t tuples] inserts an {e unsorted} tuple array.  Every
      kind retains the inserted tuples as-is (tree nodes, hash slots and
      multimap buckets all store them), so callers must not mutate a
      tuple afterwards.  The ordered kinds sort a private copy in the
      index's own order (unless the input already is) and insert the run
      in order; with a pool of more than one worker and enough tuples the
      B-tree kinds partition the run by the tree's internal separators so
      every partition descends into a disjoint subtree and batch-inserts
      with its own hints (the parallel structural merge).  The other
      ordered kinds insert the run serially, and the hash kinds insert in
      input order in one serial loop: a relation spreads hash inserts over
      its pool itself, gated on primary freshness because a secondary
      multimap does not deduplicate.  Returns the fresh-tuple count
      (meaningful on the primary index only). *)

  val iter : t -> (int array -> unit) -> unit
  val cardinal : t -> int
  val is_empty : t -> bool
  (** O(1) (unlike [cardinal], which may enumerate). *)

  (** Per-worker access handle carrying operation hints (tree kinds) — the
      paper's thread-local hint records, created once per worker and reused
      across operations. *)
  type cursor

  val cursor : t -> cursor
  val c_insert : cursor -> int array -> bool
  val c_mem : cursor -> int array -> bool

  val c_scan : cursor -> cols:int array -> int array -> (int array -> unit) -> unit
  (** [c_scan cur ~cols bound f] calls [f] on every tuple whose columns
      [cols] equal [bound] (same length, in [cols] order).  [cols] must be
      the index's own signature for hash kinds, and any prefix set of the
      index's order for tree kinds.  With empty [cols] this is a full
      scan. *)

  val release : cursor -> unit
  (** Done with the cursor: its hint counters fold into the index's
      totals and it is no longer tracked, so an index that lives for
      many phases does not keep one record per cursor ever made.  The
      cursor must not be used afterwards. *)

  val hint_counters : t -> (int * int) option
  (** [(hits, misses)] aggregated over every cursor ever created on this
      index — the paper's section 4.3 hint hit-rate statistic.  [None] for
      storage kinds without operation hints. *)

  val shape : t -> Tree_shape.t option
  (** Structural report of the underlying tree; [None] for non-B-tree
      kinds.  Quiescent use only. *)

  val hint_runs : t -> int array option
  (** Hint-locality distribution ({!Btree_tuples.hint_run_hist}) summed
      over every cursor ever created on this index; [None] for unhinted
      kinds or when no cursor was created. *)

  val order : t -> int array option
  (** The index's total comparison order — a permutation of the columns
      whose every prefix set is a valid [~cols] for {!c_scan} — for the
      ordered kinds; [None] for hash kinds.  The primary's order is the
      identity; a secondary's is its signature or shared-chain order
      extended by the remaining columns in ascending position. *)

  val merge_runs : int array option -> int array option -> int array option
  (** Element-wise sum of two optional {!hint_runs} histograms. *)
end
