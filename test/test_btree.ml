(* The concurrent plain-key tree: the shared suite over integer keys, plus
   a pair-key range scan and the write permits a duplicate takes. *)

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

(* [Olock] counting successful write acquisitions and releases by kind. *)
module Counting_lock = struct
  include Olock

  let acquired = ref 0
  let ended = ref 0
  let aborted = ref 0

  let reset () =
    acquired := 0;
    ended := 0;
    aborted := 0

  let counted ok =
    if ok then incr acquired;
    ok

  let try_upgrade_to_write l v = counted (Olock.try_upgrade_to_write l v)
  let try_start_write l = counted (Olock.try_start_write l)

  let start_write l =
    Olock.start_write l;
    incr acquired

  let end_write l =
    incr ended;
    Olock.end_write l

  let abort_write l =
    incr aborted;
    Olock.abort_write l
end

module TC = Btree_core.Make_plain (Counting_lock) (Key.Int)

(* Alg. 1's duplicate rule: a key found under a valid lease is reported
   present without a write permit — in an inner node or a leaf, by descent
   or through a hint.  A batch of present keys may take permits, but must
   release every one unchanged, so concurrent leases stay valid. *)
let test_duplicates_take_no_permit () =
  List.iter
    (fun capacity ->
      let n = 3000 in
      let t = TC.create ~capacity () in
      for x = 0 to n - 1 do
        ignore (TC.insert t (x * 7919 mod n) : bool)
      done;
      TC.check_invariants t;
      Counting_lock.reset ();
      for x = 0 to n - 1 do
        Alcotest.(check bool) "insert of a present key" false (TC.insert t x)
      done;
      let s = TC.session t in
      for x = 0 to n - 1 do
        Alcotest.(check bool) "s_insert of a present key" false (TC.s_insert s x)
      done;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: write acquisitions" capacity)
        0 !Counting_lock.acquired;
      let run = Array.init n Fun.id in
      Alcotest.(check int) "insert_batch fresh" 0 (TC.insert_batch t run);
      Alcotest.(check int) "s_insert_batch fresh" 0 (TC.s_insert_batch s run);
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: releases by end_write" capacity)
        0 !Counting_lock.ended;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: permits released by abort_write" capacity)
        !Counting_lock.acquired !Counting_lock.aborted;
      Alcotest.(check int) "cardinal" n (TC.cardinal t);
      TC.check_invariants t)
    [ 4; 24 ]

let () =
  Suite.run "btree"
    [
      ("queries", [ Alcotest.test_case "pair keys" `Quick test_pair_keys ]);
      ( "write path",
        [
          Alcotest.test_case "duplicates take no permit" `Quick
            test_duplicates_take_no_permit;
        ] );
    ]
