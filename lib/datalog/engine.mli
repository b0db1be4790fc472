(** Top-level Datalog engine facade: compile once, load facts, evaluate,
    inspect results.

    {[
      let program = Parser.parse_string "..." in
      let engine = Engine.create ~kind:Storage.Btree program in
      Engine.add_fact engine "edge" [| 1; 2 |];
      Pool.with_pool 8 (fun pool -> Engine.run engine pool);
      Printf.printf "paths: %d\n" (Engine.relation_size engine "path")
    ]} *)

type t

val create :
  ?kind:Storage.kind ->
  ?instrument:bool ->
  ?profile:bool ->
  ?from:t ->
  Ast.program ->
  t
(** Compiles the program (resolution, safety checks, stratification, join
    planning).  [kind] selects the relation storage (default [Btree]);
    [instrument] enables the Table 2 operation counters; [profile] records
    per-rule evaluation times (both default [false]).  Every relation
    checks the two-phase access discipline with its own always-on phase
    latch: a read that overlaps a write raises
    {!Relation.Phase_violation}.

    [from] rebuilds: the new engine shares the symbol table of [from], so
    every symbol keeps its id, and queues the base facts ({!iter_base}) of
    each relation of [from] that the program declares with the same
    arity.  The resident query server rebuilds this way on a program
    change (live or replayed from its log) and after a failed {!run};
    [from] is not used afterwards.
    @raise Plan.Compile_error / @raise Stratify.Not_stratifiable *)

val add_fact : t -> string -> int array -> unit
(** Queue an input tuple for the next {!run}.
    @raise Invalid_argument on unknown predicate or wrong arity. *)

val add_fact_run : t -> string -> int array array -> unit
(** Queue a whole run of tuples in one chunk, before the first {!run} or
    between runs.  At {!run} the chunks of a predicate are grouped and fed
    through the batch write path ({!Relation.Writer.insert_batch}), so bulk
    loaders ({!Dl_io}) avoid per-tuple queuing entirely.  The array is
    retained; callers must not mutate it (or its tuples) afterwards.
    @raise Invalid_argument on unknown predicate or wrong arity. *)

val intern : t -> string -> int
(** Intern a symbol, for building facts that mix numbers and symbols. *)

val find_symbol : t -> string -> int option
(** The id of a symbol already interned; never grows the table.  A
    pattern symbol the engine never saw matches no tuple. *)

val symbol_name : t -> int -> string option

val symbols : t -> int
(** Number of interned symbols. *)

val run : t -> Pool.t -> unit
(** Apply the queued facts and evaluate to the fixed point.  May be
    called any number of times: the first run evaluates the whole
    program, a later one only what the newly queued facts change
    ({!Eval}).  A run that raises leaves the relations part-way; the
    engine then refuses to run again, and [create ~from] builds its
    replacement.
    @raise Invalid_argument after a failed run. *)

val has_run : t -> bool
(** Whether a run completed. *)

val iter_base : t -> string -> (int array -> unit) -> unit
(** The base facts of a relation: every tuple added with {!add_fact} and
    friends, applied or still queued — never a derived tuple nor one of
    the program's inline facts.  A relation that also has rules keeps
    its base facts apart from its derived tuples.  Quiescent use only.
    @raise Invalid_argument on unknown relation. *)

val relation : t -> string -> Relation.t
(** The current full relation itself, for phase-typed access: open
    {!Relation.begin_read} handles to serve concurrent queries over the
    fixed point — the query server's reader phases go through here.  A
    later {!run} may replace it; fetch it again after each run.
    @raise Invalid_argument on unknown relation. *)

val relation_size : t -> string -> int
val iter_relation : t -> string -> (int array -> unit) -> unit
val relation_list : t -> string -> int array list
(** Sorted in the relation's natural order (storage-dependent for hash
    kinds). *)

val output_relations : t -> string list
val input_relations : t -> string list
val relations : t -> string list

val relation_arity : t -> string -> int
(** @raise Invalid_argument on unknown relation. *)

val iterations : t -> int
(** Fixed-point rounds of the last {!run}. *)

val stats : t -> Dl_stats.snapshot option
(** Operation counters, when created with [~instrument:true]. *)

val hint_rate : t -> float option
(** Fraction of hinted operations that hit across all relations (after
    {!run}); [None] when the storage kind has no hints.  Reproduces the
    section 4.3 hint hit-rate statistics. *)

val tree_shapes : t -> (string * Tree_shape.t) list
(** Structural report of every non-empty B-tree-backed relation, keyed by
    relation name (after {!run}); empty for non-B-tree storage kinds. *)

val hint_run_hist : t -> int array option
(** Hint-locality distribution (log2-bucketed hit-run lengths) summed over
    every cursor of every relation; [None] for unhinted storage kinds. *)

val rule_profile : t -> Eval.rule_profile list
(** Per rule-version cumulative evaluation times over every {!run},
    hottest first; empty unless created with [~profile:true]. *)

val kind : t -> Storage.kind
