(** Pluggable tuple storage for Datalog relations.

    A relation is represented by one or more {e indexes}.  Every index holds
    the full tuples of its relation and is keyed on a sequence of columns,
    its {!Index.key}; its one bounded read enumerates the tuples whose
    first [k] key columns equal given values (the access pattern of a join
    literal whose columns are bound when it executes).  A relation's
    primary index additionally provides full-tuple membership,
    deduplicating insertion and whole-relation scans.

    Ordered storage kinds keep a tree ordered lexicographically by the key
    and serve any key prefix (lower_bound + in-order scan — exactly the
    paper's B-tree usage); hash-based kinds keep a hash multimap from the
    key's values to tuples, which serves the whole key only, since hashes
    cannot perform ordered range scans (footnote in DESIGN.md).

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
    chain (tree kinds, through the prefixes of their key); hash multimaps
    serve exactly one signature each.

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
    kind -> arity:int -> key:int array -> stats:Dl_stats.t option -> unit -> t
  (** [key] lists distinct columns, possibly none.  The ordered kinds sort
      by [key] and then the remaining columns in ascending position, so
      signatures forming a containment chain share one physical index
      ({!Index_selection}); the hash kinds build a hash set of tuples for
      an empty [key] (a primary) and a multimap on the [key] columns
      otherwise.  When [stats] is given, operations count into it.
      @raise Invalid_argument on a repeated or out-of-range column. *)

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

  val c_scan : cursor -> int array -> (int array -> unit) -> unit
  (** [c_scan cur prefix f] calls [f] on every tuple whose first
      [Array.length prefix] {!key} columns equal [prefix], in the index's
      order on the ordered kinds (one lower-bound descent and a scan that
      stops at the first tuple past the prefix).  An empty [prefix] scans
      every tuple; a non-empty one counts one lower and one upper bound.
      @raise Invalid_argument on a hash kind when [prefix] is neither
      empty nor the whole key. *)

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

  val key : t -> int array
  (** The columns {!c_scan}'s prefix runs over: on the ordered kinds the
      total comparison order, the [key] given to {!create} extended by the
      remaining columns in ascending position; on the hash kinds the
      [key] itself. *)

  val merge_runs : int array option -> int array option -> int array option
  (** Element-wise sum of two optional {!hint_runs} histograms. *)
end
