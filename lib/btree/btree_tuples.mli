(** The specialized concurrent B-tree over integer tuples: {!Btree_core.Make}
    over {!Olock} and a column-order comparator.  The Datalog engine's
    relation indexes use this module.

    Tuples are [int array]s of a fixed arity, ordered lexicographically
    over [order] (a column permutation: an index signature's bound columns
    first).  The comparator is specialised to the order once, at creation,
    mirroring the paper's implementation note (2) — Soufflé's template
    instantiation inlines the tuple comparator.  Inserted arrays are
    retained: callers must not mutate them.

    Concurrency contract, hints and algorithms are those of {!Btree}. *)

include Btree_core.OPS with type key = int array

val create :
  ?capacity:int -> ?binary_search:bool -> arity:int -> order:int array -> unit -> t
(** [order] must be a permutation of [0 .. arity-1]; [binary_search]
    defaults to [true] here (a tuple comparison is dearer than an integer
    one).  @raise Invalid_argument otherwise. *)

val arity : t -> int
