(** Operation counters for the engine's storage layer — the instrumentation
    behind Table 2 of the paper (inserts, membership tests, lower_bound and
    upper_bound calls per workload).

    Counters are Sync counters (atomics confined to [Sync]) so parallel runs count exactly; instrumented runs
    are kept separate from timed runs in the benchmark harness. *)

type t = {
  inserts : Sync.Counter.t;          (** insert attempts on relations *)
  mem_tests : Sync.Counter.t;        (** membership tests (dedup, load freshness, negation) *)
  lower_bounds : Sync.Counter.t;     (** range-scan openings *)
  upper_bounds : Sync.Counter.t;     (** range-scan terminations *)
  input_tuples : Sync.Counter.t;     (** facts loaded *)
  produced_tuples : Sync.Counter.t;  (** distinct tuples derived by rules *)
}

val create : unit -> t
val reset : t -> unit

type snapshot = {
  s_inserts : int;
  s_mem_tests : int;
  s_lower_bounds : int;
  s_upper_bounds : int;
  s_input_tuples : int;
  s_produced_tuples : int;
}

val snapshot : t -> snapshot
val pp : Format.formatter -> snapshot -> unit
