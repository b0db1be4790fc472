(* R6 conforming fixture (checked with ~server:true): every admission
   is dominated by a WAL append — lexically inside the Ok-side of a
   match on a wal-appending helper, or sequenced after one.  Shrinking
   the pending batch admits nothing.  Never compiled — test data for
   test_lint.ml. *)

type state = { mutable s_batch : (string * string list) list }

let admit_ingest _st _rel = ()

let wal_admit st entry = Wal.append st entry

let assert_fact st rel row =
  match wal_admit st row with
  | Error e -> Error e
  | Ok () ->
    st.s_batch <- (rel, [ row ]) :: st.s_batch;
    admit_ingest st rel;
    Ok ()

let replay st rel rows =
  ignore (wal_admit st "replayed");
  st.s_batch <- (rel, rows) :: st.s_batch

let flipped st = st.s_batch <- []

let drop st rel = st.s_batch <- List.filter (fun (r, _) -> r <> rel) st.s_batch
