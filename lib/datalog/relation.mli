(** A Datalog relation: a set of fixed-arity integer tuples held in a
    primary index plus the secondary indexes the compiled rules require.

    Insertion goes to all indexes and is deduplicated by the primary; for
    storage kinds whose insert is not thread-safe a per-relation mutex
    serialises writers (the paper's "global lock" configurations).  Reads
    take no lock.  One always-on phase latch per relation checks the
    two-phase access discipline instead: every typed phase handle and
    every {!iter} holds it, and a read that overlaps a write raises
    {!Phase_violation}.  The handles and {!iter} are the only ways to
    read or write a relation's tuples. *)

type t

exception Phase_violation of string
(** A read phase and a write phase of one relation overlapped, or a
    finished handle was used. *)

val create :
  name:string ->
  arity:int ->
  kind:Storage.kind ->
  sigs:int array list ->
  stats:Dl_stats.t option ->
  unit ->
  t
(** [sigs] are the signatures the relation's joins scan by (each a
    strictly increasing, non-empty array of column indices); the primary
    index always exists, in the identity order on the ordered kinds.  On
    the ordered kinds a signature the primary serves in full (a prefix set
    of the identity: [{0}], [{0,1}], ...) gets no index of its own, and
    the others share one index per chain of their minimum chain cover
    ({!Index_selection}, the paper's companion index-minimisation
    technique), so no two indexes have one order.  The hash kinds get one
    multimap per signature.  {!serve} then picks the index for every
    read. *)

val index_count : t -> int
(** Number of indexes beside the primary. *)

val name : t -> string
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val iter : t -> (int array -> unit) -> unit
(** Quiescent scan of the whole relation in the primary's order.  It
    holds a read slot of the phase latch while it runs.
    @raise Phase_violation when a write phase is open. *)

val hint_counters : t -> (int * int) option
(** Aggregated (hits, misses) of every hint-carrying cursor over all of the
    relation's indexes; [None] for hint-less storage kinds. *)

val shape : t -> Tree_shape.t option
(** Structural report of the primary index's tree; [None] for non-B-tree
    storage kinds.  Quiescent use only. *)

val hint_runs : t -> int array option
(** Hint-locality distribution summed over every cursor of every index of
    the relation; [None] when the storage kind is unhinted. *)

val serve : t -> int array -> int * int array
(** [serve r cols] is the serving rule, the one place an index is chosen
    for a set [cols] of bound columns, for join steps and queries alike.
    It returns the index's id for {!Reader.scan} ([-1] the primary,
    [0 .. index_count r - 1] the others) and its {e lead}: the bound
    columns its key starts with, in key order.  On the ordered kinds
    ({!Storage.shares_indexes}) it is the index whose order starts with
    the most bound columns, ties going to the primary; on the hash kinds
    the widest multimap whose whole signature is bound, else the primary
    with an empty lead.  A declared signature is always led in full. *)

(** {1 Typed two-phase access — the public access API}

    This is the stable, documented way to read and write a relation from
    worker code; the untyped cursor that used to sit beside it is now
    internal.  In every parallel region a relation is either written or
    read, never both — the discipline parallel semi-naive evaluation
    guarantees and the B-tree's synchronisation is specialised for.  The
    typed handles make the phase explicit: a {!Writer.t} can only insert,
    a {!Reader.t} can only query.  Opening a phase while the opposite
    phase is live raises {!Phase_violation} (both phases are
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
  (** [insert_batch ?pool w tuples] inserts an unsorted tuple array into
      every index of the relation through the batch write path
      ({!Storage.Index.merge}): for tree kinds each physical index sorts a
      private copy in its own order and bulk-inserts it, in parallel on
      [pool] (the parallel structural merge); for hash kinds — whose
      secondary multimaps do not deduplicate — inserts are gated per
      tuple on primary freshness, spread on [pool] when the kind takes
      concurrent inserts.  Unlike {!insert}, counts nothing into the
      stats — callers account freshness themselves.  Returns the number
      of tuples that were new. *)

  val finish : t -> unit
  (** Close the phase.  @raise Invalid_argument if already finished. *)
end

(** Read-phase handle: hinted membership, scans and pattern queries only. *)
module Reader : sig
  type rel = t
  type t

  val mem : t -> int array -> bool

  val scan : t -> int -> int array -> (int array -> unit) -> unit
  (** [scan r id prefix f], the one range read: enumerate the tuples whose
      first [Array.length prefix] key columns of index [id] (from {!serve})
      equal [prefix], given in key order — for a lead from {!serve}, the
      values of its columns.  [scan r (-1) [||] f] scans the whole
      relation. *)

  val query : t -> int option array -> (int array -> unit) -> int
  (** [query r pat f] calls [f] on every tuple matching [pat] ([Some v]:
      the column equals [v]; [None]: any value) and returns the number of
      tuples it examined — those the serving index handed to the
      per-tuple check, so at least the number of matches and at most
      {!cardinal}.  A fully bound pattern is one membership probe.
      Otherwise it is {!serve} on the bound columns, then {!scan} of the
      serving index over its lead: one lower-bound descent and an
      early-exit range scan on the ordered kinds, one bucket on a hash
      multimap.
      Every bound column is checked per tuple, so a query costs
      O(log n + rows) when some index leads with all its bound columns.
      No index is created for a query.  Tuples come in the serving
      index's order: lexicographic whenever the primary serves.
      @raise Invalid_argument if [pat] does not have the relation's arity. *)

  val finish : t -> unit
  (** Close the phase.  @raise Invalid_argument if already finished. *)
end

val begin_write : t -> Writer.t
(** @raise Phase_violation while a read phase is open. *)

val begin_read : t -> Reader.t
(** @raise Phase_violation while a write phase is open. *)
