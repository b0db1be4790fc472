(* The concurrent plain-key tree: the shared suite over integer keys, plus
   a pair-key range scan. *)

module T = Btree.Make (Key.Int)
module TP = Btree.Make (Key.Pair)

module Suite = Tree_suite.Make (struct
  include T

  let make ?capacity ?binary_search () = create ?capacity ?binary_search ()
  let key x = x
  let int_of x = x
  let concurrent = true
  let of_sorted = Some (fun ~capacity a -> of_sorted_array ~capacity a)
end)

let test_pair_keys () =
  let t = TP.create ~capacity:4 () in
  let n = 50 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      ignore (TP.insert t (x, y) : bool)
    done
  done;
  Alcotest.(check int) "grid cardinal" (n * n) (TP.cardinal t);
  Alcotest.(check bool) "mem (3,4)" true (TP.mem t (3, 4));
  Alcotest.(check bool) "mem (n,0)" false (TP.mem t (n, 0));
  (* lexicographic range scan: all pairs with first component 7 *)
  let row = ref [] in
  TP.iter_from
    (fun (x, y) ->
      x = 7
      && begin
           row := y :: !row;
           true
         end)
    t (7, 0);
  Alcotest.(check (list int)) "prefix scan row 7" (List.init n Fun.id) (List.rev !row);
  TP.check_invariants t

let () =
  Suite.run "btree" [ ("queries", [ Alcotest.test_case "pair keys" `Quick test_pair_keys ]) ]
