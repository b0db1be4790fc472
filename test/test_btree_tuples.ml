(* The tuple tree: the shared suite over 2-tuples in a permuted column
   order (integer [i] maps to [(i land 15, i asr 4)] under order [1; 0]),
   plus tuple-specific cases: order validation, arity, prefix scans, and a
   differential against the plain functor tree over [Key.Int_array]. *)

module Generic = Btree.Make (Key.Int_array)

module Suite = Tree_suite.Make (struct
  include Btree_tuples

  let make ?capacity ?binary_search () =
    create ?capacity ?binary_search ~arity:2 ~order:[| 1; 0 |] ()

  let key i = [| i land 15; i asr 4 |]
  let int_of k = (k.(1) lsl 4) lor k.(0)
  let concurrent = true
  let of_sorted = None
end)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rng = Tree_suite.rng
let tuples_equal a b = Key.Int_array.compare a b = 0

let test_basic () =
  let t = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
  check_bool "empty" true (Btree_tuples.is_empty t);
  check_bool "insert" true (Btree_tuples.insert t [| 1; 2 |]);
  check_bool "dup" false (Btree_tuples.insert t [| 1; 2 |]);
  check_bool "mem" true (Btree_tuples.mem t [| 1; 2 |]);
  check_bool "absent" false (Btree_tuples.mem t [| 2; 1 |]);
  check_int "cardinal" 1 (Btree_tuples.cardinal t);
  check_int "arity" 2 (Btree_tuples.arity t);
  Btree_tuples.check_invariants t

let test_bad_order_rejected () =
  List.iter
    (fun order ->
      match Btree_tuples.create ~arity:2 ~order () with
      | _ -> Alcotest.fail "accepted bad order"
      | exception Invalid_argument _ -> ())
    [ [| 0 |]; [| 0; 0 |]; [| 0; 2 |]; [| -1; 0 |] ]

let test_permuted_order () =
  (* order [1; 0]: sorted by second column first *)
  let t = Btree_tuples.create ~arity:2 ~order:[| 1; 0 |] () in
  List.iter
    (fun tup -> ignore (Btree_tuples.insert t tup : bool))
    [ [| 5; 1 |]; [| 1; 5 |]; [| 3; 3 |]; [| 9; 0 |] ];
  Btree_tuples.check_invariants t;
  let order = List.map (fun a -> (a.(0), a.(1))) (Btree_tuples.to_list t) in
  Alcotest.(check (list (pair int int)))
    "second-column order"
    [ (9, 0); (5, 1); (3, 3); (1, 5) ]
    order

let test_arity3 () =
  let r = rng 1 in
  let t = Btree_tuples.create ~arity:3 ~order:[| 2; 0; 1 |] () in
  let module TS = Set.Make (struct
    type t = int array

    let compare = Key.Int_array.compare
  end) in
  let model = ref TS.empty in
  for _ = 1 to 10_000 do
    let tup = [| r 50; r 50; r 50 |] in
    check_bool "fresh agrees with model"
      (not (TS.mem tup !model))
      (Btree_tuples.insert t tup);
    model := TS.add tup !model
  done;
  Btree_tuples.check_invariants t;
  check_int "cardinal" (TS.cardinal !model) (Btree_tuples.cardinal t)

let test_prefix_scan () =
  (* sig [0]-major order: scanning from (7, -inf) while first col = 7 must
     enumerate exactly row 7 *)
  let t = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
  for x = 0 to 19 do
    for y = 0 to 19 do
      ignore (Btree_tuples.insert t [| x; y |] : bool)
    done
  done;
  let seen = ref [] in
  Btree_tuples.iter_from
    (fun tup ->
      if tup.(0) = 7 then begin
        seen := tup.(1) :: !seen;
        true
      end
      else false)
    t [| 7; min_int |];
  Alcotest.(check (list int)) "row 7" (List.init 20 Fun.id) (List.rev !seen)

let prop_matches_generic =
  QCheck.Test.make ~count:200 ~name:"specialized = generic functor tree"
    QCheck.(pair (list (pair (int_bound 40) (int_bound 40))) (small_list (pair (int_bound 45) (int_bound 45))))
    (fun (ins, probes) ->
      let sp = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
      let ge = Generic.create () in
      let agree_ins =
        List.for_all
          (fun (a, b) ->
            Btree_tuples.insert sp [| a; b |] = Generic.insert ge [| a; b |])
          ins
      in
      let agree_mem =
        List.for_all
          (fun (a, b) ->
            Btree_tuples.mem sp [| a; b |] = Generic.mem ge [| a; b |])
          probes
      in
      Btree_tuples.check_invariants sp;
      agree_ins && agree_mem
      && List.for_all2 tuples_equal (Btree_tuples.to_list sp) (Generic.to_list ge))

(* ------------------------------------------------------------------ *)
(* batch inserts + structural merge pieces                             *)
(* ------------------------------------------------------------------ *)

module TS = Set.Make (struct
  type t = int array

  let compare = Key.Int_array.compare
end)

let sorted_tuples pairs =
  Array.of_list
    (TS.elements (TS.of_list (List.map (fun (a, b) -> [| a; b |]) pairs)))

let prop_batch_matches_serial =
  QCheck.Test.make ~count:200 ~name:"batch = one-by-one (identity order)"
    QCheck.(list (pair (int_bound 60) (int_bound 60)))
    (fun pairs ->
      let run = sorted_tuples pairs in
      let a = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
      Array.iter (fun tup -> ignore (Btree_tuples.insert a tup : bool)) run;
      let b = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
      let fresh = Btree_tuples.insert_batch b run in
      Btree_tuples.check_invariants b;
      fresh = Array.length run
      && List.for_all2 tuples_equal (Btree_tuples.to_list a)
           (Btree_tuples.to_list b))

let prop_batch_permuted_order =
  (* the run must be sorted in the tree's own (permuted) order *)
  QCheck.Test.make ~count:200 ~name:"batch respects permuted order"
    QCheck.(list (pair (int_bound 60) (int_bound 60)))
    (fun pairs ->
      let a = Btree_tuples.create ~arity:2 ~order:[| 1; 0 |] () in
      let tuples = List.map (fun (x, y) -> [| x; y |]) pairs in
      List.iter (fun tup -> ignore (Btree_tuples.insert a tup : bool)) tuples;
      let b = Btree_tuples.create ~arity:2 ~order:[| 1; 0 |] () in
      let run = Array.of_list tuples in
      Array.sort (Btree_tuples.compare b) run;
      ignore (Btree_tuples.insert_batch b run : int);
      Btree_tuples.check_invariants b;
      List.for_all2 tuples_equal (Btree_tuples.to_list a)
        (Btree_tuples.to_list b))

(* Minor words allocated by 10k calls of [g], net of the loop itself. *)
let words_of_10k g =
  let run g =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  run g -. run (fun () -> ())

(* [Key.Int_array.equal] agrees with [compare = 0], also across lengths,
   and a call allocates nothing (its loop closes over no arrays). *)
let test_int_array_equal () =
  let r = rng 26 in
  let tuple () = Array.init (r 5) (fun _ -> r 3) in
  for _ = 1 to 5_000 do
    let a = tuple () and b = tuple () in
    check_bool
      (Printf.sprintf "equal %s %s" (Key.Int_array.to_string a)
         (Key.Int_array.to_string b))
      (Key.Int_array.compare a b = 0)
      (Key.Int_array.equal a b)
  done;
  let a = [| 1; 2; 3; 4 |] and b = [| 1; 2; 3; 4 |] in
  Alcotest.(check (float 0.))
    "minor words of 10k equal calls" 0.
    (words_of_10k (fun () -> ignore (Key.Int_array.equal a b : bool)))

(* The tree's comparator at every arity: the column order's lexicographic
   order, and no allocation per call (equal tuples: every column read). *)
let test_compare_columns () =
  let r = rng 12 in
  List.iter
    (fun arity ->
      let order = Array.init arity (fun i -> arity - 1 - i) in
      let cmp = Btree_tuples.compare (Btree_tuples.create ~arity ~order ()) in
      let permuted a = Array.map (fun c -> a.(c)) order in
      for _ = 1 to 2_000 do
        let a = Array.init arity (fun _ -> r 3) and b = Array.init arity (fun _ -> r 3) in
        check_int
          (Printf.sprintf "arity %d order" arity)
          (Key.Int_array.compare (permuted a) (permuted b))
          (cmp a b)
      done;
      let a = Array.init arity Fun.id and b = Array.init arity Fun.id in
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words of 10k arity-%d compares" arity)
        0.
        (words_of_10k (fun () -> ignore (cmp a b : int))))
    [ 1; 2; 3; 4 ]

let () =
  Suite.run "btree_tuples"
    [
      ( "basics",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "bad order" `Quick test_bad_order_rejected;
          Alcotest.test_case "permuted order" `Quick test_permuted_order;
          Alcotest.test_case "arity 3" `Quick test_arity3;
          Alcotest.test_case "prefix scan" `Quick test_prefix_scan;
          Alcotest.test_case "Int_array.equal" `Quick test_int_array_equal;
          Alcotest.test_case "compare by columns" `Quick test_compare_columns;
        ] );
      ( "properties",
        Tree_suite.qcheck
          [ prop_matches_generic; prop_batch_matches_serial; prop_batch_permuted_order ]
      );
    ]
