(* Quickstart: the specialized concurrent B-tree as a library.

     dune exec examples/quickstart.exe

   Walks through the public API: creation, session-hinted insertion,
   membership, bound queries, range scans, and a concurrent insertion phase
   driven by multiple domains — the paper's write-phase / read-phase usage
   pattern. *)

module T = Btree.Make (Key.Pair)

let () =
  print_endline "== specialized concurrent B-tree: quickstart ==\n";

  (* 1. build a tree single-threaded, through a per-domain session (the
     session owns this domain's operation hints) *)
  let tree = T.create () in
  let sess = T.session tree in
  for x = 0 to 99 do
    for y = 0 to 99 do
      ignore (T.s_insert sess (x, y) : bool)
    done
  done;
  Printf.printf "inserted a 100x100 grid of 2D tuples: cardinal = %d\n"
    (T.cardinal tree);
  let hits, misses = T.hint_counters (T.s_hints sess) in
  Printf.printf "ordered insertion drove the insert hint: %d hits / %d misses\n"
    hits misses;

  (* 2. point queries and bounds *)
  Printf.printf "mem (7, 10)   = %b\n" (T.s_mem sess (7, 10));
  Printf.printf "mem (7, 100)  = %b\n" (T.s_mem sess (7, 100));
  (match T.lower_bound tree (42, 98) with
  | Some (x, y) -> Printf.printf "lower_bound (42, 98) = (%d, %d)\n" x y
  | None -> print_endline "lower_bound (42, 98) = none");
  (match T.upper_bound tree (42, 99) with
  | Some (x, y) -> Printf.printf "upper_bound (42, 99) = (%d, %d)  (next row)\n" x y
  | None -> print_endline "upper_bound (42, 99) = none");

  (* 3. range scan: all tuples with first component 13 — the nested-loop
     join access pattern of Datalog evaluation *)
  let row = ref 0 in
  T.iter_from
    (fun (x, _) ->
      if x = 13 then begin
        incr row;
        true
      end
      else false)
    tree (13, 0);
  Printf.printf "range scan of row 13 visited %d tuples\n" !row;

  (* 4. concurrent write phase: domains share the tree, each through its
     own session; no other synchronisation is needed *)
  let tree2 = T.create () in
  let workers = max 2 (Domain.recommended_domain_count ()) in
  let per = 50_000 in
  let spawn w =
    Domain.spawn (fun () ->
        let s = T.session tree2 in
        for i = 0 to per - 1 do
          ignore (T.s_insert s (w, i) : bool)
        done)
  in
  let t0 = Bench_util.wall () in
  let ds = List.init workers spawn in
  List.iter Domain.join ds;
  let dt = Bench_util.wall () -. t0 in
  Printf.printf
    "\n%d domains inserted %d tuples concurrently in %.3fs (%.2f M ins/s)\n"
    workers (workers * per) dt
    (Bench_util.mops (workers * per) dt);
  Printf.printf "final cardinal = %d (no lost updates)\n" (T.cardinal tree2);
  T.check_invariants tree2;
  print_endline "structural invariants hold";

  (* 5. structure statistics *)
  let st = T.stats tree2 in
  Printf.printf
    "tree stats: %d nodes, %d leaves, height %d, fill grade %.2f\n"
    st.T.nodes st.T.leaves st.T.height st.T.fill
