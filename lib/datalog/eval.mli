(** Parallel semi-naive evaluation of a compiled program over resident
    relations.

    An evaluation state holds the full relations of every predicate and
    is evaluated any number of times: each {!run} loads a batch of added
    facts and brings the relations to the fixed point again.  Stratum by
    stratum, a run either
    - {e recomputes} the stratum: it never ran, or a relation it reads
      through negation or an aggregate changed, or a relation it reads
      was itself recomputed.  Its relations start over from their facts;
      one naive round over the current relation contents seeds the
      recursion.
    - runs it {e incrementally}: relations it reads only positively
      gained tuples.  The first round evaluates the delta version of
      every rule literal over such a relation, reading what that relation
      gained in this run; the usual delta rounds follow.
    - skips it, when nothing it reads changed.

    The first run is therefore the classic evaluation, and a run that
    adds one fact does work proportional to what that fact derives.
    Rule instances are evaluated in parallel by partitioning the outer
    (delta) scan across the worker pool; every worker drives the storage
    layer through its own hint-carrying cursors, and produced tuples are
    inserted into the shared [new] relations concurrently — the
    parallelisation scheme of the paper's section 2.  As in Soufflé, only
    a stratum that reads its own relations has [new] and [delta]
    relations: in any other stratum nothing reads a head while its rules
    run, so the workers collect their head tuples and each head's full
    relation takes them in one batch write. *)

type rule_profile = {
  rp_rule : string;       (** pretty-printed source rule *)
  rp_delta : bool;        (** a semi-naive delta variant? *)
  rp_evaluations : int;   (** times this version was evaluated *)
  rp_seconds : float;     (** cumulative wall time *)
}

type t

val create :
  Plan.t ->
  kind:Storage.kind ->
  stats:Dl_stats.t option ->
  profile:bool ->
  t
(** Empty relations for every predicate of the plan; [profile] records
    per rule-version timings.  Each relation checks the two-phase access
    discipline with its own always-on phase latch, so a rule that reads a
    relation while another writes it raises {!Relation.Phase_violation}. *)

val run : t -> pool:Pool.t -> (int * int array array) list -> unit
(** [run t ~pool batch] adds the [(pred id, tuples)] runs of [batch] (and,
    on the first run, the program's inline facts) through the batch write
    path ({!Relation.Writer.insert_batch}: each index sorts the group and
    bulk-inserts it, in parallel on [pool] for large groups on
    thread-safe storage kinds), then evaluates to the fixed point.  When
    it raises, the relations are left part-way and [t] must not be run
    again; its added facts ({!iter_base}) stay readable. *)

val relations : t -> Relation.t array
(** The current full relations by predicate id.  The array is live: a
    recomputed stratum replaces its entries. *)

val iter_base : t -> int -> (int array -> unit) -> unit
(** The facts added to a predicate through {!run}: never its derived
    tuples nor the program's inline facts. *)

val iterations : t -> int
(** Fixed-point rounds of the last run, across all strata. *)

val profile : t -> rule_profile list
(** Per rule-version timings accumulated over every run, sorted by
    descending cumulative time; empty unless profiling was requested. *)
