(* R6 firing fixture (checked with ~server:true): admissions onto the
   pending batch that are not dominated by a WAL append.  Never compiled —
   test data for test_lint.ml. *)

type state = { mutable s_batch : (string * string list) list }

let admit_ingest _st _rel = ()

let install_program _st _prog = 1

let assert_fact st rel row =
  st.s_batch <- (rel, [ row ]) :: st.s_batch;
  admit_ingest st rel

let load st rel rows =
  if rows <> [] then st.s_batch <- (rel, rows) :: st.s_batch

let load_rules st prog = ignore (install_program st prog)
