(** A Datalog relation: a set of fixed-arity integer tuples held in a
    primary index plus the secondary indexes the compiled rules require.

    Insertion goes to all indexes and is deduplicated by the primary; for
    storage kinds whose insert is not thread-safe a per-relation mutex
    serialises writers (the paper's "global lock" configurations).  Reads
    are never synchronised — the engine guarantees the two-phase access
    discipline. *)

type t

val create :
  ?check_phases:bool ->
  name:string ->
  arity:int ->
  kind:Storage.kind ->
  sigs:int array list ->
  stats:Dl_stats.t option ->
  unit ->
  t
(** [sigs] are the secondary-index signatures (each a strictly increasing,
    non-empty array of column indices); the primary index always exists.
    For tree-backed storage kinds, signatures forming containment chains
    share one physical index whose order serves every signature on the
    chain ({!Index_selection} — the paper's companion index-minimisation
    technique); hash kinds get one multimap per signature. *)

val index_count : t -> int
(** Number of physical secondary indexes (≤ number of signatures for tree
    kinds). *)

val name : t -> string
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool
val iter : t -> (int array -> unit) -> unit
val mem : t -> int array -> bool

val insert : t -> int array -> bool
(** Direct insert (fact loading, merging); thread-safety per the contract
    above.  [true] iff the tuple was new. *)

val merge_batch : ?pool:Pool.t -> t -> int array array -> int
(** [merge_batch ?pool t tuples] inserts an unsorted tuple array into every
    index of the relation through the batch write path
    ({!Storage.Index.merge}): for tree kinds each physical index sorts a
    private copy in its own order and bulk-inserts it, in parallel on
    [pool] (the parallel structural merge); for hash kinds — whose
    secondary multimaps do not deduplicate — inserts are gated per tuple
    on primary freshness like {!insert}, spread on [pool] when the kind
    takes concurrent inserts.  Like {!insert}, counts nothing into the
    stats — callers account freshness themselves.  Returns the number of
    tuples that were new.  Must run in a write phase: safe against
    concurrent writers, never concurrent with readers. *)

val hint_counters : t -> (int * int) option
(** Aggregated (hits, misses) of every hint-carrying cursor over all of the
    relation's indexes; [None] for hint-less storage kinds. *)

val shape : t -> Tree_shape.t option
(** Structural report of the primary index's tree; [None] for non-B-tree
    storage kinds.  Quiescent use only. *)

val hint_runs : t -> int array option
(** Hint-locality distribution summed over every cursor of every index of
    the relation; [None] when the storage kind is unhinted. *)

val sig_id : t -> int array -> int
(** Index id of a signature for {!Reader.scan}; [-1] denotes the primary.
    @raise Not_found if the signature was not declared at creation. *)

(** {1 Typed two-phase access — the public access API}

    This is the stable, documented way to read and write a relation from
    worker code; the untyped cursor that used to sit beside it is now
    internal.  In every parallel region a relation is either written or
    read, never both — the discipline parallel semi-naive evaluation
    guarantees and the B-tree's synchronisation is specialised for.  The
    typed handles make the phase explicit: a {!Writer.t} can only insert,
    a {!Reader.t} can only query.  Opening a phase while the opposite
    phase is live raises {!Storage.Index.Phase_violation} (both phases are
    counted in one atomic word, so the overlap check has no window).  Any
    number of concurrent writers — or concurrent readers — may be open at
    once; create one handle per worker (each owns its per-domain hinted
    cursors, opening an index's cursor at its first use of that index),
    and {!Writer.finish}/{!Reader.finish} it when the phase ends. *)

(** Write-phase handle: hinted inserts and batch merges only. *)
module Writer : sig
  type rel = t
  type t

  val insert : t -> int array -> bool
  (** Hinted per-tuple insert; counts an insert attempt and — when fresh —
      a produced tuple into the stats. *)

  val insert_batch : ?pool:Pool.t -> t -> int array array -> int
  (** {!merge_batch} through this writer. *)

  val finish : t -> unit
  (** Close the phase.  @raise Invalid_argument if already finished. *)
end

(** Read-phase handle: hinted membership, scans and pattern queries only. *)
module Reader : sig
  type rel = t
  type t

  val mem : t -> int array -> bool

  val scan : t -> int -> int array -> (int array -> unit) -> unit
  (** [scan r sig_id bound f]: enumerate tuples matching [bound] on the
      signature [sig_id] (from {!sig_id}); [-1] with an empty [bound]
      scans the whole relation. *)

  val query : t -> int option array -> (int array -> unit) -> int
  (** [query r pat f] calls [f] on every tuple matching [pat] ([Some v]:
      the column equals [v]; [None]: any value) and returns the number of
      tuples it examined — those the serving index handed to the
      per-tuple check, so at least the number of matches and at most
      {!cardinal}.  The serving index is chosen from the relation's own
      indexes; none is created for a query:
      - a fully bound pattern is one membership probe;
      - ordered kinds ({!Storage.shares_indexes}): among the primary
        (identity order) and every physical secondary (its chain order),
        the index whose order starts with the most bound columns, ties
        going to the primary, answers with one lower-bound descent and an
        early-exit range scan over that prefix; the other bound columns
        are checked per tuple, so a query costs O(log n + rows) when a
        prefix covers its bound columns;
      - hash kinds: the secondary whose signature equals the bound set,
        else a filtered scan of the primary.
      Tuples come in the serving index's order: lexicographic whenever
      the primary serves.
      @raise Invalid_argument if [pat] does not have the relation's arity. *)

  val finish : t -> unit
  (** Close the phase.  @raise Invalid_argument if already finished. *)
end

val begin_write : t -> Writer.t
(** @raise Storage.Index.Phase_violation while a read phase is open. *)

val begin_read : t -> Reader.t
(** @raise Storage.Index.Phase_violation while a write phase is open. *)
