(* The sequential twin: the shared suite (minus the concurrency cases) over
   the no-op lock, plus differentials against the concurrent instance —
   the two must be observationally identical. *)

module S = Btree_seq.Make (Key.Int)
module C = Btree.Make (Key.Int)
module ISet = Set.Make (Int)

module Suite = Tree_suite.Make (struct
  include S

  let make ?capacity ?binary_search () = create ?capacity ?binary_search ()
  let key x = x
  let int_of x = x
  let concurrent = false
  let of_sorted = Some (fun ~capacity a -> of_sorted_array ~capacity a)
end)

let prop_seq_eq_concurrent =
  QCheck.Test.make ~count:200 ~name:"seq = concurrent (insert/mem)"
    QCheck.(pair (list (int_bound 300)) (small_list (int_bound 320)))
    (fun (ins, probes) ->
      let s = S.create ~capacity:4 () and c = C.create ~capacity:4 () in
      List.for_all (fun k -> S.insert s k = C.insert c k) ins
      && List.for_all
           (fun p ->
             S.mem s p = C.mem c p
             && S.lower_bound s p = C.lower_bound c p
             && S.upper_bound s p = C.upper_bound c p)
           probes
      && S.to_list s = C.to_list c)

let prop_hinted_model =
  QCheck.Test.make ~count:200 ~name:"hinted seq tree = model"
    QCheck.(list (int_bound 100))
    (fun keys ->
      let t = S.create ~capacity:4 () in
      let h = S.session t in
      List.iter (fun k -> ignore (S.s_insert h k : bool)) keys;
      S.check_invariants t;
      S.to_list t = ISet.elements (ISet.of_list keys))

let prop_bulk_matches =
  QCheck.Test.make ~count:200 ~name:"of_sorted_array = inserts"
    QCheck.(list_of_size Gen.(0 -- 500) (int_bound 10_000))
    (fun keys ->
      let uniq = Array.of_list (ISet.elements (ISet.of_list keys)) in
      let a = S.of_sorted_array ~capacity:6 uniq in
      let b = S.create ~capacity:6 () in
      Array.iter (fun k -> ignore (S.insert b k : bool)) uniq;
      S.check_invariants a;
      S.equal a b)

let prop_batch_eq_concurrent_batch =
  (* sequential batch = concurrent batch = one-by-one *)
  QCheck.Test.make ~count:200 ~name:"insert_batch = concurrent insert_batch"
    QCheck.(list (int_bound 2000))
    (fun keys ->
      let run = Array.of_list (ISet.elements (ISet.of_list keys)) in
      let s = S.create ~capacity:4 () in
      let fs = S.insert_batch s run in
      S.check_invariants s;
      let c = C.create ~capacity:4 () in
      let fc = C.insert_batch c run in
      C.check_invariants c;
      let serial = S.create ~capacity:4 () in
      Array.iter (fun k -> ignore (S.insert serial k : bool)) run;
      fs = fc && S.to_list s = C.to_list c && S.to_list s = S.to_list serial)

let () =
  Suite.run "btree_seq"
    [
      ( "properties",
        Tree_suite.qcheck
          [
            prop_seq_eq_concurrent;
            prop_hinted_model;
            prop_bulk_matches;
            prop_batch_eq_concurrent_batch;
          ] );
    ]
