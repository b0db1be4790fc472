(* Tests for the Datalog engine: parser, stratification, storage indexes,
   end-to-end evaluation on all storage kinds, parallel = sequential, and
   differential testing against the naive reference evaluator. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tc = Alcotest.test_case

let tuples_sorted l = List.sort Key.Int_array.compare l

let run_program ?(kind = Storage.Btree) ?(threads = 1) ?(facts = []) src =
  let prog = Parser.parse_string src in
  let e = Engine.create ~kind prog in
  List.iter (fun (r, t) -> Engine.add_fact e r t) facts;
  Pool.with_pool threads (fun p -> Engine.run e p);
  e

(* ---------------- parser ---------------- *)

let test_parse_basic () =
  let prog =
    Parser.parse_string
      {|
      // transitive closure
      .decl edge(x:number, y:number)
      .input edge
      .decl path(x:number, y:number)
      .output path
      path(x, y) :- edge(x, y).
      path(x, z) :- path(x, y), edge(y, z).
      edge(1, 2).
      edge(2, 3).
      |}
  in
  check_int "decls" 2 (List.length prog.Ast.decls);
  check_int "rules+facts" 4 (List.length prog.Ast.rules);
  let edge = List.find (fun (d : Ast.decl) -> d.name = "edge") prog.Ast.decls in
  check_int "edge arity" 2 edge.Ast.arity;
  check_bool "edge input" true edge.Ast.is_input;
  let path = List.find (fun (d : Ast.decl) -> d.name = "path") prog.Ast.decls in
  check_bool "path output" true path.Ast.is_output

let test_parse_negation_and_syms () =
  let prog =
    Parser.parse_string
      {|
      .decl node(x:number)
      .decl unreachable(x:number)
      .decl reach(x:number)
      unreachable(x) :- node(x), !reach(x).
      node(7).
      .decl label(x:number, l:symbol)
      label(1, "alpha").
      |}
  in
  check_int "rules" 3 (List.length prog.Ast.rules);
  let has_neg =
    List.exists
      (fun (r : Ast.rule) ->
        List.exists (function Ast.Neg _ -> true | Ast.Pos _ | Ast.Cmp _ | Ast.Agg _ -> false) r.body)
      prog.Ast.rules
  in
  check_bool "negation parsed" true has_neg

let test_parse_comments_wildcards () =
  let prog =
    Parser.parse_string
      {|
      /* block
         comment */
      .decl p(x:number, y:number)
      .decl q(x:number)
      q(x) :- p(x, _). // line comment
      |}
  in
  check_int "one rule" 1 (List.length prog.Ast.rules)

let test_parse_errors () =
  let bad = [ ".decl p(x:number"; "p(x :- q(x)."; "p(1)"; "p(x) :- ." ] in
  List.iter
    (fun src ->
      match Parser.parse_string src with
      | _ -> Alcotest.failf "accepted malformed input %S" src
      | exception Parser.Syntax_error _ -> ())
    bad

let test_parse_roundtrip () =
  (* pretty-print then re-parse: same structure *)
  let src =
    {|
    .decl e(x:number, y:number)
    .decl t(x:number, y:number)
    t(x, y) :- e(x, y).
    t(x, z) :- t(x, y), e(y, z).
    e(1, 2).
    |}
  in
  let p1 = Parser.parse_string src in
  let printed = Format.asprintf "%a" Ast.pp_program p1 in
  (* pp_program prints .decl lines in a non-parseable debug format; only
     check the rules roundtrip *)
  let rules_only =
    String.concat "\n"
      (List.filter
         (fun l -> not (String.length l > 0 && l.[0] = '.'))
         (String.split_on_char '\n' printed))
  in
  let p2 = Parser.parse_string rules_only in
  check_int "same rule count" (List.length p1.Ast.rules) (List.length p2.Ast.rules)

(* ---------------- stratification ---------------- *)

let test_stratify_linear () =
  (* a -> b -> c dependencies: c in stratum 0 *)
  let s =
    Stratify.compute ~npreds:3 ~edges:[ (0, 1, false); (1, 2, false) ]
  in
  check_bool "c before b" true (s.Stratify.stratum_of.(2) < s.Stratify.stratum_of.(1));
  check_bool "b before a" true (s.Stratify.stratum_of.(1) < s.Stratify.stratum_of.(0))

let test_stratify_scc () =
  let s =
    Stratify.compute ~npreds:3
      ~edges:[ (0, 1, false); (1, 0, false); (0, 2, false) ]
  in
  check_int "mutual recursion same stratum" s.Stratify.stratum_of.(0)
    s.Stratify.stratum_of.(1);
  check_bool "dependency earlier" true
    (s.Stratify.stratum_of.(2) < s.Stratify.stratum_of.(0))

let test_stratify_negation_ok () =
  let s = Stratify.compute ~npreds:2 ~edges:[ (0, 1, true) ] in
  check_bool "negated dep in earlier stratum" true
    (s.Stratify.stratum_of.(1) < s.Stratify.stratum_of.(0))

let test_stratify_negative_cycle () =
  match
    Stratify.compute ~npreds:2 ~edges:[ (0, 1, true); (1, 0, false) ]
  with
  | _ -> Alcotest.fail "accepted non-stratifiable program"
  | exception Stratify.Not_stratifiable _ -> ()

(* ---------------- storage indexes ---------------- *)

let test_index_signature_scan () =
  List.iter
    (fun kind ->
      let idx =
        Storage.Index.create kind ~arity:2 ~cols:[| 0 |] ~stats:None ()
      in
      for x = 0 to 9 do
        for y = 0 to 9 do
          ignore (Storage.Index.insert idx [| x; y |] : bool)
        done
      done;
      let cur = Storage.Index.cursor idx in
      let seen = ref [] in
      Storage.Index.c_scan cur ~cols:[| 0 |] [| 7 |] (fun tup -> seen := tup.(1) :: !seen);
      check_int
        (Printf.sprintf "scan row 7 (%s)" (Storage.kind_name kind))
        10
        (List.length !seen);
      check_bool
        (Printf.sprintf "row values (%s)" (Storage.kind_name kind))
        true
        (List.sort compare !seen = List.init 10 Fun.id))
    Storage.all_kinds

let test_index_empty_scan () =
  List.iter
    (fun kind ->
      let idx = Storage.Index.create kind ~arity:2 ~cols:[| 1 |] ~stats:None () in
      ignore (Storage.Index.insert idx [| 1; 2 |] : bool);
      let cur = Storage.Index.cursor idx in
      let n = ref 0 in
      Storage.Index.c_scan cur ~cols:[| 1 |] [| 99 |] (fun _ -> incr n);
      check_int (Printf.sprintf "no match (%s)" (Storage.kind_name kind)) 0 !n)
    Storage.all_kinds

let test_index_stats_counting () =
  (* Table 2's operation counts: one bound scan opens one lower and one
     upper bound, one membership test counts once, and a full scan counts
     nothing — on every storage kind *)
  List.iter
    (fun kind ->
      let stats = Dl_stats.create () in
      let idx =
        Storage.Index.create kind ~arity:2 ~cols:[| 0 |] ~stats:(Some stats) ()
      in
      let prim =
        Storage.Index.create kind ~arity:2 ~cols:[||] ~stats:(Some stats) ()
      in
      ignore (Storage.Index.insert idx [| 1; 2 |] : bool);
      ignore (Storage.Index.insert prim [| 1; 2 |] : bool);
      let cur = Storage.Index.cursor idx in
      Storage.Index.c_scan cur ~cols:[| 0 |] [| 1 |] (fun _ -> ());
      ignore (Storage.Index.c_mem cur [| 1; 2 |] : bool);
      let pcur = Storage.Index.cursor prim in
      Storage.Index.c_scan pcur ~cols:[||] [||] (fun _ -> ());
      let s = Dl_stats.snapshot stats in
      let label what = Printf.sprintf "%s (%s)" what (Storage.kind_name kind) in
      check_int (label "lower bounds") 1 s.Dl_stats.s_lower_bounds;
      check_int (label "upper bounds") 1 s.Dl_stats.s_upper_bounds;
      check_int (label "mem tests") 1 s.Dl_stats.s_mem_tests)
    Storage.all_kinds

(* ---------------- symbol table ---------------- *)

(* [Symtab] against a [Hashtbl] model over 100k+ symbols: the empty
   string, long strings sharing a 140-byte prefix, strings that differ
   only in their last byte, and repeats.  Ids are dense, in first-seen
   order, and stable; [find_opt] never grows the table. *)
let test_symtab_model () =
  let t = Symtab.create () and model = Hashtbl.create 1024 in
  let prefix = String.make 140 'p' in
  let st = Random.State.make [| 17 |] in
  let candidates =
    Array.concat
      [
        [| ""; "a"; prefix |];
        Array.init 40_000 (fun i -> Printf.sprintf "%s%08d" prefix i);
        (* groups of 256 that differ only in their last byte *)
        Array.init 30_000 (fun i ->
            Printf.sprintf "%s%d.%c" prefix (i / 256) (Char.chr (i mod 256)));
        Array.init 256 (fun c -> prefix ^ String.make 1 (Char.chr c));
        Array.init 40_000 (fun i -> string_of_int (i * 7919));
      ]
  in
  let check_one s =
    let want =
      match Hashtbl.find_opt model s with
      | Some id -> id
      | None ->
        let id = Hashtbl.length model in
        check_bool "absent before intern" true (Symtab.find_opt t s = None);
        Hashtbl.add model s id;
        id
    in
    check_int "intern" want (Symtab.intern t s)
  in
  Array.iter check_one candidates;
  (* repeats, in random order *)
  for _ = 1 to 50_000 do
    check_one candidates.(Random.State.int st (Array.length candidates))
  done;
  let n = Hashtbl.length model in
  check_bool "at least 100k symbols" true (n >= 100_000);
  check_int "size" n (Symtab.size t);
  Hashtbl.iter
    (fun s id ->
      check_bool "find_opt" true (Symtab.find_opt t s = Some id);
      check_bool "name" true (String.equal (Symtab.name t id) s))
    model;
  check_bool "absent" true (Symtab.find_opt t (prefix ^ "never") = None);
  check_int "find_opt does not grow" n (Symtab.size t);
  List.iter
    (fun id ->
      match Symtab.name t id with
      | _ -> Alcotest.failf "name of unallocated id %d" id
      | exception Not_found -> ())
    [ -1; n; n + 1 ]

(* ---------------- end-to-end evaluation ---------------- *)

let tc_src =
  {|
  .decl edge(x:number, y:number)
  .input edge
  .decl path(x:number, y:number)
  .output path
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
  |}

let chain_facts n = List.init n (fun i -> ("edge", [| i; i + 1 |]))

let test_transitive_closure_all_kinds () =
  (* chain of length n: closure has n*(n+1)/2 pairs *)
  let n = 30 in
  List.iter
    (fun kind ->
      let e = run_program ~kind ~facts:(chain_facts n) tc_src in
      check_int
        (Printf.sprintf "chain closure size (%s)" (Storage.kind_name kind))
        (n * (n + 1) / 2)
        (Engine.relation_size e "path"))
    Storage.all_kinds

let test_parallel_equals_sequential () =
  let n = 60 in
  let expected =
    let e = run_program ~threads:1 ~facts:(chain_facts n) tc_src in
    tuples_sorted (Engine.relation_list e "path")
  in
  List.iter
    (fun kind ->
      let e = run_program ~kind ~threads:4 ~facts:(chain_facts n) tc_src in
      let got = tuples_sorted (Engine.relation_list e "path") in
      check_bool
        (Printf.sprintf "parallel(%s) = sequential" (Storage.kind_name kind))
        true (got = expected))
    Storage.all_kinds

let test_cycle_closure () =
  (* cycle of n nodes: closure is the full n x n relation *)
  let n = 12 in
  let facts = List.init n (fun i -> ("edge", [| i; (i + 1) mod n |])) in
  let e = run_program ~threads:4 ~facts tc_src in
  check_int "cycle closure" (n * n) (Engine.relation_size e "path")

let test_negation_unreachable () =
  let src =
    {|
    .decl node(x:number)
    .decl edge(x:number, y:number)
    .decl reach(x:number)
    .decl unreachable(x:number)
    .output unreachable
    reach(0).
    reach(y) :- reach(x), edge(x, y).
    unreachable(x) :- node(x), !reach(x).
    |}
  in
  let facts =
    List.init 10 (fun i -> ("node", [| i |]))
    @ [ ("edge", [| 0; 1 |]); ("edge", [| 1; 2 |]); ("edge", [| 5; 6 |]) ]
  in
  let e = run_program ~facts src in
  (* reachable: 0,1,2 -> unreachable: 3..9 *)
  check_int "unreachable count" 7 (Engine.relation_size e "unreachable");
  check_bool "3 unreachable" true
    (List.mem [| 3 |] (Engine.relation_list e "unreachable"));
  check_bool "1 not unreachable" false
    (List.mem [| 1 |] (Engine.relation_list e "unreachable"))

let test_symbols () =
  let src =
    {|
    .decl parent(x:symbol, y:symbol)
    .decl ancestor(x:symbol, y:symbol)
    .output ancestor
    ancestor(x, y) :- parent(x, y).
    ancestor(x, z) :- ancestor(x, y), parent(y, z).
    parent("homer", "bart").
    parent("abe", "homer").
    |}
  in
  let e = run_program src in
  check_int "ancestors" 3 (Engine.relation_size e "ancestor");
  let abe = Engine.intern e "abe" and bart = Engine.intern e "bart" in
  check_bool "abe ancestor of bart" true
    (List.mem [| abe; bart |] (Engine.relation_list e "ancestor"))

let test_constants_in_rules () =
  let src =
    {|
    .decl e(x:number, y:number)
    .decl from_zero(y:number)
    .output from_zero
    from_zero(y) :- e(0, y).
    |}
  in
  let e =
    run_program ~facts:[ ("e", [| 0; 5 |]); ("e", [| 1; 6 |]); ("e", [| 0; 7 |]) ]
      src
  in
  check_int "constant filter" 2 (Engine.relation_size e "from_zero")

let test_repeated_vars () =
  let src =
    {|
    .decl e(x:number, y:number)
    .decl selfloop(x:number)
    .output selfloop
    selfloop(x) :- e(x, x).
    |}
  in
  let e =
    run_program
      ~facts:[ ("e", [| 1; 1 |]); ("e", [| 1; 2 |]); ("e", [| 3; 3 |]) ]
      src
  in
  check_int "self loops" 2 (Engine.relation_size e "selfloop")

let test_mutual_recursion () =
  let src =
    {|
    .decl e(x:number, y:number)
    .decl even_path(x:number, y:number)
    .decl odd_path(x:number, y:number)
    .output even_path
    odd_path(x, y) :- e(x, y).
    odd_path(x, z) :- even_path(x, y), e(y, z).
    even_path(x, z) :- odd_path(x, y), e(y, z).
    |}
  in
  (* chain 0..n: odd_path = pairs at odd distance, even_path at even > 0 *)
  let n = 10 in
  let facts = List.init n (fun i -> ("e", [| i; i + 1 |])) in
  let e = run_program ~threads:2 ~facts src in
  let count_dist parity =
    let c = ref 0 in
    for i = 0 to n do
      for j = i + 1 to n do
        if (j - i) mod 2 = parity then incr c
      done
    done;
    !c
  in
  check_int "odd paths" (count_dist 1) (Engine.relation_size e "odd_path");
  check_int "even paths" (count_dist 0) (Engine.relation_size e "even_path")

let test_unsafe_rules_rejected () =
  let cases =
    [
      (* head var not bound *)
      ".decl p(x:number)\n.decl q(x:number)\np(y) :- q(x).";
      (* negation var not bound *)
      ".decl p(x:number)\n.decl q(x:number)\n.decl r(x:number)\np(x) :- q(x), !r(y).";
    ]
  in
  List.iter
    (fun src ->
      match Engine.create (Parser.parse_string src) with
      | _ -> Alcotest.failf "accepted unsafe rule: %s" src
      | exception Plan.Compile_error _ -> ())
    cases

let test_arity_mismatch_rejected () =
  let src = ".decl p(x:number)\np(1, 2)." in
  match Engine.create (Parser.parse_string src) with
  | _ -> Alcotest.fail "accepted arity mismatch"
  | exception Plan.Compile_error _ -> ()

let test_non_stratifiable_rejected () =
  let src =
    ".decl p(x:number)\n.decl q(x:number)\np(x) :- q(x), !p(x).\nq(1)."
  in
  match Engine.create (Parser.parse_string src) with
  | _ -> Alcotest.fail "accepted non-stratifiable program"
  | exception Stratify.Not_stratifiable _ -> ()

let test_instrumentation_counts () =
  let prog = Parser.parse_string tc_src in
  let e = Engine.create ~instrument:true prog in
  List.iter (fun (r, t) -> Engine.add_fact e r t) (chain_facts 20);
  Pool.with_pool 1 (fun p -> Engine.run e p);
  match Engine.stats e with
  | None -> Alcotest.fail "instrumented engine returned no stats"
  | Some s ->
    check_int "input tuples" 20 s.Dl_stats.s_input_tuples;
    check_int "produced tuples" (20 * 21 / 2) s.Dl_stats.s_produced_tuples;
    check_bool "some inserts" true (s.Dl_stats.s_inserts > 0);
    check_bool "some range queries" true (s.Dl_stats.s_lower_bounds > 0);
    check_bool "lb = ub" true
      (s.Dl_stats.s_lower_bounds = s.Dl_stats.s_upper_bounds)

(* ---------------- parser fuzzing ---------------- *)

(* pretty-print -> parse -> pretty-print must be a fixpoint *)
let gen_term = function
  | 0 -> Ast.Var "x"
  | 1 -> Ast.Var "y"
  | 2 -> Ast.Int 7
  | 3 -> Ast.Int (-3)
  | 4 -> Ast.Sym "s"
  | 5 -> Ast.Add (Ast.Var "x", Ast.Int 1)
  | 6 -> Ast.Sub (Ast.Var "y", Ast.Var "x")
  | _ -> Ast.Mul (Ast.Int 2, Ast.Var "x")

let prop_parser_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pretty-print/parse fixpoint"
    QCheck.(list_of_size Gen.(1 -- 4) (pair (int_bound 7) (int_bound 7)))
    (fun shape ->
      (* build a rule whose body binds x and y, then random extras *)
      let base =
        [ Ast.Pos (Ast.atom "p" [ Ast.Var "x"; Ast.Var "y" ]) ]
      in
      let extras =
        List.map
          (fun (a, b) ->
            if a land 1 = 0 then Ast.Pos (Ast.atom "q" [ gen_term a; gen_term b ])
            else Ast.Cmp (Ast.Lt, gen_term a, gen_term b))
          shape
      in
      let rule =
        Ast.rule (Ast.atom "h" [ Ast.Var "x"; Ast.Var "y" ]) (base @ extras)
      in
      let printed = Format.asprintf "%a" Ast.pp_rule rule in
      match Parser.parse_string printed with
      | { Ast.rules = [ r2 ]; _ } ->
        Format.asprintf "%a" Ast.pp_rule r2 = printed
      | _ -> false
      | exception Parser.Syntax_error _ -> false)

let prop_parser_no_crash =
  QCheck.Test.make ~count:500 ~name:"parser never crashes on junk"
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun junk ->
      match Parser.parse_string junk with
      | _ -> true
      | exception Parser.Syntax_error _ -> true)
      (* any other exception fails the property *)

(* ---------------- index selection (chain cover) ---------------- *)

let test_index_selection_chain () =
  (* {0} ⊂ {0,1} ⊂ {0,1,2}: one chain, one index *)
  let plan =
    Index_selection.solve ~arity:3 [ [| 0 |]; [| 0; 1 |]; [| 0; 1; 2 |] ]
  in
  check_int "one order" 1 (List.length plan.Index_selection.orders);
  check_int "three assignments" 3 (List.length plan.Index_selection.assignment);
  (* the single order must start with 0, then 1, then 2 *)
  Alcotest.(check (array int)) "chain order" [| 0; 1; 2 |]
    (List.hd plan.Index_selection.orders)

let test_index_selection_antichain () =
  (* {0} and {1} are incomparable: two indexes *)
  let plan = Index_selection.solve ~arity:2 [ [| 0 |]; [| 1 |] ] in
  check_int "two orders" 2 (List.length plan.Index_selection.orders)

let test_index_selection_diamond () =
  (* {0}, {1}, {0,1}: max antichain {0},{1} -> exactly 2 chains *)
  let plan = Index_selection.solve ~arity:2 [ [| 0 |]; [| 1 |]; [| 0; 1 |] ] in
  check_int "two chains" 2 (List.length plan.Index_selection.orders);
  check_int "lower bound" 2
    (Index_selection.chains_lower_bound [ [| 0 |]; [| 1 |]; [| 0; 1 |] ])

let sig_is_prefix_of_order cols order =
  let n = Array.length cols in
  n <= Array.length order
  && List.sort compare (Array.to_list (Array.sub order 0 n))
     = Array.to_list cols

let prop_index_selection_sound_and_optimal =
  QCheck.Test.make ~count:300 ~name:"chain cover: sound + Dilworth-optimal"
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 30))
    (fun seeds ->
      (* random signatures over 4 columns *)
      let arity = 4 in
      let sigs =
        List.filter_map
          (fun seed ->
            let cols =
              List.filter (fun c -> (seed lsr c) land 1 = 1) [ 0; 1; 2; 3 ]
            in
            if cols = [] then None else Some (Array.of_list cols))
          seeds
      in
      QCheck.assume (sigs <> []);
      let plan = Index_selection.solve ~arity sigs in
      let orders = Array.of_list plan.Index_selection.orders in
      (* every distinct signature is assigned, and to a serving order *)
      let distinct = List.sort_uniq compare sigs in
      List.for_all
        (fun s ->
          match List.assoc_opt s plan.Index_selection.assignment with
          | Some chain -> sig_is_prefix_of_order s orders.(chain)
          | None -> false)
        distinct
      && Array.length orders = Index_selection.chains_lower_bound sigs)

let test_relation_shares_indexes () =
  (* btree relation with chained signatures uses one physical index;
     hash relation keeps one per signature *)
  let mk kind =
    Relation.create ~name:"r" ~arity:3 ~kind
      ~sigs:[ [| 0 |]; [| 0; 1 |]; [| 0; 1; 2 |] ]
      ~stats:None ()
  in
  check_int "btree shares" 1 (Relation.index_count (mk Storage.Btree));
  check_int "hash does not" 3 (Relation.index_count (mk Storage.Hashset));
  (* shared index still answers each signature correctly *)
  let r = mk Storage.Btree in
  for a = 0 to 4 do
    for b = 0 to 4 do
      for c = 0 to 4 do
        ignore (Relation.insert r [| a; b; c |] : bool)
      done
    done
  done;
  let cur = Relation.begin_read r in
  let count sig_cols bound =
    let n = ref 0 in
    Relation.Reader.scan cur (Relation.sig_id r sig_cols) bound (fun _ -> incr n);
    !n
  in
  check_int "scan {0}" 25 (count [| 0 |] [| 2 |]);
  check_int "scan {0,1}" 5 (count [| 0; 1 |] [| 2; 3 |]);
  check_int "scan {0,1,2}" 1 (count [| 0; 1; 2 |] [| 2; 3; 4 |]);
  check_int "scan miss" 0 (count [| 0 |] [| 9 |]);
  Relation.Reader.finish cur

(* ---------------- constraints and arithmetic ---------------- *)

let test_parse_constraints () =
  let prog =
    Parser.parse_string
      {|
      .decl p(x:number)
      .decl q(x:number, y:number)
      q(x, y) :- p(x), p(y), x < y.
      q(x, y) :- p(x), y = x + 1.
      q(x, y) :- p(x), p(y), x != y, y >= x * 2 - 1.
      |}
  in
  check_int "three rules" 3 (List.length prog.Ast.rules);
  let count_cmp =
    List.fold_left
      (fun acc (r : Ast.rule) ->
        acc
        + List.length
            (List.filter (function Ast.Cmp _ -> true | _ -> false) r.body))
      0 prog.Ast.rules
  in
  check_int "four constraints" 4 count_cmp

let test_comparison_filter () =
  let src =
    {|
    .decl p(x:number)
    .decl lt(x:number, y:number)
    .output lt
    lt(x, y) :- p(x), p(y), x < y.
    |}
  in
  let e = run_program ~facts:(List.init 10 (fun i -> ("p", [| i |]))) src in
  check_int "pairs with x < y" 45 (Engine.relation_size e "lt")

let test_assignment_binding () =
  let src =
    {|
    .decl p(x:number)
    .decl next(x:number, y:number)
    .output next
    next(x, y) :- p(x), y = x + 1.
    |}
  in
  let e = run_program ~facts:[ ("p", [| 3 |]); ("p", [| 7 |]) ] src in
  check_bool "3 -> 4" true (List.mem [| 3; 4 |] (Engine.relation_list e "next"));
  check_bool "7 -> 8" true (List.mem [| 7; 8 |] (Engine.relation_list e "next"));
  check_int "two tuples" 2 (Engine.relation_size e "next")

let test_arithmetic_in_head () =
  let src =
    {|
    .decl p(x:number)
    .decl scaled(x:number)
    .output scaled
    scaled(x * 2 + 1) :- p(x).
    |}
  in
  let e = run_program ~facts:[ ("p", [| 5 |]); ("p", [| 0 |]) ] src in
  check_bool "11 derived" true (List.mem [| 11 |] (Engine.relation_list e "scaled"));
  check_bool "1 derived" true (List.mem [| 1 |] (Engine.relation_list e "scaled"))

let test_bounded_counter_recursion () =
  (* counting with arithmetic: the constraint bounds the fixed point *)
  let src =
    {|
    .decl count(n:number)
    .output count
    count(0).
    count(n + 1) :- count(n), n < 10.
    |}
  in
  let e = run_program ~threads:2 src in
  check_int "0..10" 11 (Engine.relation_size e "count")

let test_path_lengths () =
  (* distance tracking on a DAG: arithmetic through recursion *)
  let src =
    {|
    .decl edge(x:number, y:number)
    .decl dist(x:number, y:number, d:number)
    .output dist
    dist(x, y, 1) :- edge(x, y).
    dist(x, z, d + 1) :- dist(x, y, d), edge(y, z).
    |}
  in
  let n = 8 in
  let facts = List.init n (fun i -> ("edge", [| i; i + 1 |])) in
  let e = run_program ~threads:2 ~facts src in
  (* chain: dist(i, j, j - i) for all i < j *)
  check_int "all distances" (n * (n + 1) / 2) (Engine.relation_size e "dist");
  check_bool "dist(0, 8, 8)" true
    (List.mem [| 0; n; n |] (Engine.relation_list e "dist"))

let test_unsafe_comparison_rejected () =
  let src = ".decl p(x:number)\n.decl q(x:number)\np(x) :- q(x), x < y." in
  match Engine.create (Parser.parse_string src) with
  | _ -> Alcotest.fail "accepted comparison with unbound variable"
  | exception Plan.Compile_error _ -> ()

let test_ground_arith_fact () =
  let src = ".decl p(x:number)\n.output p\np(2 + 3 * 4)." in
  let e = run_program src in
  check_bool "14 present" true (List.mem [| 14 |] (Engine.relation_list e "p"))

let test_constraints_vs_naive () =
  let src =
    {|
    .decl p(x:number)
    .decl q(x:number, y:number)
    .output q
    p(1). p(4). p(9).
    q(x, y) :- p(x), p(y), x < y, y != x + 3.
    q(x, x * x) :- p(x), x >= 2.
    |}
  in
  let prog = Parser.parse_string src in
  let reference = Naive.run prog ~extra_facts:[] in
  let e = Engine.create prog in
  Pool.with_pool 2 (fun p -> Engine.run e p);
  let got = tuples_sorted (Engine.relation_list e "q") in
  let want =
    tuples_sorted (Option.value ~default:[] (Hashtbl.find_opt reference "q"))
  in
  check_bool "constraint semantics match naive" true (got = want)

let test_rule_profile () =
  let prog = Parser.parse_string tc_src in
  let e = Engine.create ~profile:true prog in
  List.iter (fun (r, t) -> Engine.add_fact e r t) (chain_facts 30);
  Pool.with_pool 1 (fun p -> Engine.run e p);
  let prof = Engine.rule_profile e in
  check_bool "profile nonempty" true (prof <> []);
  (* one seed version per rule + one delta variant for the recursive rule *)
  check_int "three rule versions" 3 (List.length prof);
  check_bool "delta variant recorded" true
    (List.exists (fun p -> p.Eval.rp_delta) prof);
  let delta = List.find (fun p -> p.Eval.rp_delta) prof in
  check_bool "delta evaluated once per round" true
    (delta.Eval.rp_evaluations >= 29);
  check_bool "sorted by time" true
    (let rec sorted = function
       | a :: (b :: _ as rest) ->
         a.Eval.rp_seconds >= b.Eval.rp_seconds && sorted rest
       | _ -> true
     in
     sorted prof);
  (* unprofiled engine yields no profile *)
  let e2 = Engine.create prog in
  List.iter (fun (r, t) -> Engine.add_fact e2 r t) (chain_facts 5);
  Pool.with_pool 1 (fun p -> Engine.run e2 p);
  check_bool "no profile by default" true (Engine.rule_profile e2 = [])

(* ---------------- TSV fact I/O ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dlio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_io_roundtrip () =
  with_temp_dir (fun dir ->
      let write_file name content =
        let oc = open_out (Filename.concat dir name) in
        output_string oc content;
        close_out oc
      in
      write_file "edge.facts" "1\t2\n2\t3\n\n3\t4\n";
      let prog = Parser.parse_string tc_src in
      let e = Engine.create prog in
      let loaded = Dl_io.load_facts_dir e dir in
      Alcotest.(check (list (pair string int))) "loaded" [ ("edge", 3) ] loaded;
      Pool.with_pool 1 (fun p -> Engine.run e p);
      check_int "closure" 6 (Engine.relation_size e "path");
      let written = Dl_io.write_outputs e ~dir in
      Alcotest.(check (list (pair string int))) "written" [ ("path", 6) ] written;
      (* reload the written file into a fresh engine *)
      let e2 = Engine.create prog in
      let ic = open_in (Filename.concat dir "path.csv") in
      let n = Dl_io.load_facts_channel e2 ~relation:"edge" ic in
      close_in ic;
      check_int "reloaded" 6 n)

let test_io_symbols () =
  with_temp_dir (fun dir ->
      let oc = open_out (Filename.concat dir "edge.facts") in
      output_string oc "alpha\tbeta\nbeta\tgamma\n";
      close_out oc;
      let prog = Parser.parse_string tc_src in
      let e = Engine.create prog in
      ignore (Dl_io.load_facts_dir e dir : (string * int) list);
      Pool.with_pool 1 (fun p -> Engine.run e p);
      check_int "symbolic closure" 3 (Engine.relation_size e "path");
      let a = Engine.intern e "alpha" and g = Engine.intern e "gamma" in
      check_bool "alpha->gamma" true
        (List.mem [| a; g |] (Engine.relation_list e "path")))

let test_io_arity_error () =
  with_temp_dir (fun dir ->
      let oc = open_out (Filename.concat dir "edge.facts") in
      output_string oc "1\t2\t3\n";
      close_out oc;
      let e = Engine.create (Parser.parse_string tc_src) in
      match Dl_io.load_facts_dir e dir with
      | _ -> Alcotest.fail "accepted wrong arity"
      | exception Dl_io.Parse_error { line = 1; relation = "edge"; file = Some _; _ }
        -> ())

(* ---------------- aggregates ---------------- *)

let test_agg_count () =
  let src =
    {|
    .decl edge(x:number, y:number)
    .decl outdeg(x:number, n:number)
    .decl node(x:number)
    .output outdeg
    node(x) :- edge(x, _).
    outdeg(x, n) :- node(x), n = count : { edge(x, y) }.
    |}
  in
  let facts =
    [ ("edge", [| 1; 2 |]); ("edge", [| 1; 3 |]); ("edge", [| 1; 4 |]);
      ("edge", [| 2; 3 |]) ]
  in
  let e = run_program ~facts src in
  check_bool "outdeg(1,3)" true (List.mem [| 1; 3 |] (Engine.relation_list e "outdeg"));
  check_bool "outdeg(2,1)" true (List.mem [| 2; 1 |] (Engine.relation_list e "outdeg"));
  check_int "two nodes" 2 (Engine.relation_size e "outdeg")

let test_agg_min_max_sum () =
  let src =
    {|
    .decl v(x:number)
    .decl stats(lo:number, hi:number, total:number)
    .output stats
    stats(lo, hi, total) :-
      lo = min x : { v(x) },
      hi = max x : { v(x) },
      total = sum x : { v(x) }.
    |}
  in
  let e = run_program ~facts:[ ("v", [| 4 |]); ("v", [| 9 |]); ("v", [| 2 |]) ] src in
  Alcotest.(check (list (array int)))
    "stats tuple" [ [| 2; 9; 15 |] ] (Engine.relation_list e "stats")

let test_agg_min_empty_body () =
  (* min over an empty set: the rule must not fire *)
  let src =
    {|
    .decl v(x:number)
    .decl w(x:number)
    .decl m(x:number)
    .output m
    m(x) :- x = min y : { w(y) }.
    v(1).
    |}
  in
  let e = run_program src in
  check_int "no minimum over empty" 0 (Engine.relation_size e "m")

let test_agg_count_empty_is_zero () =
  let src =
    {|
    .decl w(x:number)
    .decl c(n:number)
    .output c
    c(n) :- n = count : { w(y) }.
    |}
  in
  let e = run_program src in
  Alcotest.(check (list (array int)))
    "count over empty = 0" [ [| 0 |] ] (Engine.relation_list e "c")

let test_agg_correlated () =
  (* the aggregate body references outer variables and a constraint *)
  let src =
    {|
    .decl edge(x:number, y:number)
    .decl big_out(x:number, n:number)
    .decl node(x:number)
    .output big_out
    node(x) :- edge(x, _).
    big_out(x, n) :- node(x), n = count : { edge(x, y), y > 10 }, n >= 2.
    |}
  in
  let facts =
    [ ("edge", [| 1; 11 |]); ("edge", [| 1; 12 |]); ("edge", [| 1; 2 |]);
      ("edge", [| 2; 30 |]) ]
  in
  let e = run_program ~facts src in
  Alcotest.(check (list (array int)))
    "only node 1 qualifies" [ [| 1; 2 |] ]
    (Engine.relation_list e "big_out")

let test_agg_vs_naive () =
  let src =
    {|
    .decl e(x:number, y:number)
    .decl d(x:number, n:number)
    .decl nodes(x:number)
    .output d
    e(1, 2). e(1, 3). e(2, 3). e(3, 1). e(3, 4).
    nodes(x) :- e(x, _).
    d(x, n) :- nodes(x), n = count : { e(x, y) }.
    |}
  in
  let prog = Parser.parse_string src in
  let reference = Naive.run prog ~extra_facts:[] in
  let e = Engine.create prog in
  Pool.with_pool 2 (fun p -> Engine.run e p);
  check_bool "aggregate semantics match naive" true
    (tuples_sorted (Engine.relation_list e "d")
    = tuples_sorted (Option.value ~default:[] (Hashtbl.find_opt reference "d")))

let test_agg_inner_scope () =
  (* inner variables must not leak to the head *)
  let src =
    ".decl e(x:number)\n.decl h(x:number)\nh(y) :- _n = count : { e(y) }."
  in
  match Engine.create (Parser.parse_string src) with
  | _ -> Alcotest.fail "aggregate body variable leaked into scope"
  | exception Plan.Compile_error _ -> ()

let test_agg_recursion_rejected () =
  (* aggregating over the rule's own stratum is not stratifiable *)
  let src =
    ".decl p(x:number)\n.decl q(x:number)\np(n) :- q(x), n = count : { p(y) }.\nq(1).\np(0)."
  in
  match Engine.create (Parser.parse_string src) with
  | _ -> Alcotest.fail "accepted aggregate over its own stratum"
  | exception Stratify.Not_stratifiable _ -> ()

let test_agg_result_checked_when_bound () =
  (* if the result variable is already bound, the aggregate is a filter *)
  let src =
    {|
    .decl e(x:number)
    .decl expect(n:number)
    .decl ok(n:number)
    .output ok
    ok(n) :- expect(n), n = count : { e(x) }.
    e(1). e(2). e(3).
    expect(3). expect(5).
    |}
  in
  let e = run_program src in
  Alcotest.(check (list (array int)))
    "only the true count passes" [ [| 3 |] ] (Engine.relation_list e "ok")

(* ---------------- two-phase discipline ---------------- *)

let test_phase_checker_detects_violation () =
  let idx =
    Storage.Index.with_phase_check ~name:"probe"
      (Storage.Index.create Storage.Btree ~arity:1 ~cols:[||] ~stats:None ())
  in
  ignore (Storage.Index.insert idx [| 1 |] : bool);
  (* overlap a read with a write from another domain via a rendezvous *)
  let in_read = Atomic.make false in
  let release = Atomic.make false in
  let violated = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Storage.Index.iter idx (fun _ ->
            Atomic.set in_read true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get in_read) do
    Domain.cpu_relax ()
  done;
  (try ignore (Storage.Index.insert idx [| 2 |] : bool)
   with Storage.Index.Phase_violation _ -> Atomic.set violated true);
  Atomic.set release true;
  Domain.join reader;
  check_bool "write during read detected" true (Atomic.get violated)

let test_phase_checker_allows_phases () =
  let idx =
    Storage.Index.with_phase_check ~name:"probe"
      (Storage.Index.create Storage.Btree ~arity:1 ~cols:[||] ~stats:None ())
  in
  (* pure write phase, then pure read phase: no violation *)
  for i = 0 to 99 do
    ignore (Storage.Index.insert idx [| i |] : bool)
  done;
  let n = ref 0 in
  Storage.Index.iter idx (fun _ -> incr n);
  check_int "contents" 100 !n

let test_typed_phase_handles () =
  let r =
    Relation.create ~name:"r" ~arity:2 ~kind:Storage.Btree ~sigs:[ [| 0 |] ]
      ~stats:None ()
  in
  (* concurrent writers are fine *)
  let w1 = Relation.begin_write r in
  let w2 = Relation.begin_write r in
  check_bool "writer insert" true (Relation.Writer.insert w1 [| 1; 2 |]);
  check_bool "writer dup" false (Relation.Writer.insert w2 [| 1; 2 |]);
  (* a read may not open while a writer is live *)
  (match Relation.begin_read r with
  | _ -> Alcotest.fail "begin_read during write phase accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  Relation.Writer.finish w1;
  Relation.Writer.finish w2;
  (* double-finish is a bug, loudly *)
  (match Relation.Writer.finish w1 with
  | () -> Alcotest.fail "double finish accepted"
  | exception Invalid_argument _ -> ());
  (* concurrent readers are fine; writes are now rejected *)
  let r1 = Relation.begin_read r in
  let r2 = Relation.begin_read r in
  check_bool "reader mem" true (Relation.Reader.mem r1 [| 1; 2 |]);
  let n = ref 0 in
  Relation.Reader.scan r2 (Relation.sig_id r [| 0 |]) [| 1 |] (fun _ -> incr n);
  check_int "reader scan" 1 !n;
  (match Relation.begin_write r with
  | _ -> Alcotest.fail "begin_write during read phase accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  Relation.Reader.finish r1;
  Relation.Reader.finish r2;
  (* both phases closed: either may open again *)
  let w = Relation.begin_write r in
  Relation.Writer.finish w;
  let rd = Relation.begin_read r in
  Relation.Reader.finish rd

(* A resident relation sees a reader or writer per query and per flip for
   as long as it lives.  Finishing a handle folds its cursors' hint
   counters into the index totals instead of keeping a record per cursor
   ever made: the counters stay exact and the heap stays flat. *)
let test_finished_handles_release_cursors () =
  let r =
    Relation.create ~name:"resident" ~arity:2 ~kind:Storage.Btree
      ~sigs:[ [| 1 |] ] ~stats:None ()
  in
  let w = Relation.begin_write r in
  for i = 0 to 99 do
    ignore (Relation.Writer.insert w [| i; i |] : bool)
  done;
  Relation.Writer.finish w;
  let hint_ops () =
    match Relation.hint_counters r with Some (h, m) -> h + m | None -> 0
  in
  let probes () =
    for i = 1 to 20_000 do
      let rd = Relation.begin_read r in
      ignore (Relation.Reader.mem rd [| i mod 100; i mod 100 |] : bool);
      Relation.Reader.finish rd
    done
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let ops0 = hint_ops () in
  probes ();
  check_int "every released probe counted" 20_000 (hint_ops () - ops0);
  let before = live_words () in
  probes ();
  let growth = live_words () - before in
  (* the relation must outlive the measurement *)
  check_int "every released probe counted" 40_000 (hint_ops () - ops0);
  if growth > 100_000 then
    Alcotest.failf "20000 finished readers left %d live words behind" growth

(* A phase handle opens an index cursor at its first use, so a reader
   that touches only the primary costs the same however many secondary
   signatures — and physical indexes — its relation has. *)
let test_reader_cost_flat_in_signatures () =
  let mk sigs =
    let r =
      Relation.create ~name:"flat" ~arity:3 ~kind:Storage.Btree ~sigs
        ~stats:None ()
    in
    let w = Relation.begin_write r in
    for i = 0 to 99 do
      ignore (Relation.Writer.insert w [| i; i mod 7; i mod 5 |] : bool)
    done;
    Relation.Writer.finish w;
    r
  in
  let words r =
    let probe () =
      let rd = Relation.begin_read r in
      ignore (Relation.Reader.mem rd [| 42; 0; 2 |] : bool);
      Relation.Reader.finish rd
    in
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      probe ()
    done;
    Gc.minor_words () -. w0
  in
  let bare = mk [] and wide = mk [ [| 1 |]; [| 2 |]; [| 0; 2 |]; [| 1; 2 |] ] in
  check_bool "the wide relation has several indexes" true
    (Relation.index_count wide >= 2);
  Alcotest.(check (float 0.))
    "minor words of 1000 primary-only readers" (words bare) (words wide)

let test_stale_phase_handles () =
  (* a finished handle is dead: any operation through it must fail loudly
     rather than silently reopen the phase (the bug class this catches is a
     worker caching a [Writer.t] across rounds) *)
  let r =
    Relation.create ~name:"stale" ~arity:2 ~kind:Storage.Btree
      ~sigs:[ [| 0 |] ] ~stats:None ()
  in
  let w = Relation.begin_write r in
  check_bool "live insert" true (Relation.Writer.insert w [| 1; 2 |]);
  Relation.Writer.finish w;
  (match Relation.Writer.insert w [| 3; 4 |] with
  | _ -> Alcotest.fail "insert through a stale writer accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  (match Relation.Writer.insert_batch w [| [| 5; 6 |] |] with
  | _ -> Alcotest.fail "insert_batch through a stale writer accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  (* the failed stale calls must not have corrupted the phase tracking:
     a fresh read phase opens and sees only the live insert *)
  let rd = Relation.begin_read r in
  check_bool "stale insert did not land" false (Relation.Reader.mem rd [| 3; 4 |]);
  check_bool "live insert landed" true (Relation.Reader.mem rd [| 1; 2 |]);
  Relation.Reader.finish rd;
  (match Relation.Reader.mem rd [| 1; 2 |] with
  | _ -> Alcotest.fail "mem through a stale reader accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  (match Relation.Reader.scan rd (Relation.sig_id r [| 0 |]) [| 1 |] ignore with
  | () -> Alcotest.fail "scan through a stale reader accepted"
  | exception Storage.Index.Phase_violation _ -> ());
  (* and the relation itself is still healthy *)
  let w2 = Relation.begin_write r in
  check_bool "relation usable after stale accesses" true
    (Relation.Writer.insert w2 [| 7; 8 |]);
  Relation.Writer.finish w2

let all_tuples r =
  let acc = ref [] in
  Relation.iter r (fun tup -> acc := Array.copy tup :: !acc);
  List.sort compare !acc

let test_merge_batch_parallel_vs_serial () =
  (* the parallel structural merge must build exactly the set the serial
     per-tuple path builds, across pool sizes, for every thread-safe kind
     and the locked serial kinds alike *)
  let s = ref (Key.mix64 24) in
  let r bound =
    s := Key.mix64 (!s + 0x2545F4914F6CDD1D);
    !s mod bound
  in
  let tuples =
    Array.init 9_000 (fun _ -> [| r 120; r 120 |])
    (* well above merge_parallel_cutoff, with many duplicates *)
  in
  (* with a secondary index the hash kinds gate each tuple on primary
     freshness; without one, every kind's merge is its primary's own
     [Storage.Index.merge] (the concurrent hash's pool-spread loop) *)
  let mk sigs kind =
    Relation.create ~name:"m" ~arity:2 ~kind ~sigs ~stats:None ()
  in
  List.iter
    (fun (sigs, kind) ->
      let serial = mk sigs kind in
      let fresh_serial = ref 0 in
      Array.iter
        (fun tup -> if Relation.insert serial tup then incr fresh_serial)
        tuples;
      List.iter
        (fun domains ->
          let batched = mk sigs kind in
          let fresh =
            Pool.with_pool domains (fun pool ->
                Relation.merge_batch ~pool batched tuples)
          in
          let label what =
            Printf.sprintf "%s (%s, %d sigs, %d domains)" what
              (Storage.kind_name kind) (List.length sigs) domains
          in
          check_int (label "fresh") !fresh_serial fresh;
          check_int (label "cardinal") (Relation.cardinal serial)
            (Relation.cardinal batched);
          check_bool (label "contents") true
            (all_tuples serial = all_tuples batched);
          if sigs <> [] then begin
            (* secondary indexes got every tuple too *)
            let cur = Relation.begin_read batched in
            let n = ref 0 in
            Relation.Reader.scan cur (Relation.sig_id batched [| 1 |]) [| 7 |]
              (fun _ -> incr n);
            Relation.Reader.finish cur;
            let m = ref 0 in
            List.iter (fun tup -> if tup.(1) = 7 then incr m) (all_tuples serial);
            check_int (label "secondary scan") !m !n
          end)
        [ 1; 2; 4; 8 ])
    (List.concat_map
       (fun sigs -> List.map (fun kind -> (sigs, kind)) Storage.all_kinds)
       [ [ [| 1 |] ]; [] ])

let test_index_merge_empty_and_small () =
  (* below the parallel cutoff and on empty input the merge is serial but
     must agree with per-tuple inserts *)
  let idx = Storage.Index.create Storage.Btree ~arity:1 ~cols:[||] ~stats:None () in
  check_int "empty merge" 0 (Storage.Index.merge idx [||]);
  check_int "small merge" 3
    (Storage.Index.merge idx [| [| 3 |]; [| 1 |]; [| 2 |]; [| 3 |] |]);
  check_int "cardinal" 3 (Storage.Index.cardinal idx);
  check_int "sorted batch replay" 0
    (Storage.Index.insert_batch idx [| [| 1 |]; [| 2 |]; [| 3 |] |])

let test_engine_respects_two_phases () =
  (* the core claim behind the paper's synchronisation design: parallel
     semi-naive evaluation never reads a relation it is writing *)
  List.iter
    (fun kind ->
      let e = Engine.create ~kind ~check_phases:true (Parser.parse_string tc_src) in
      List.iter (fun (r, t) -> Engine.add_fact e r t) (chain_facts 40);
      Pool.with_pool 4 (fun p -> Engine.run e p);
      check_int
        (Printf.sprintf "closure under phase checking (%s)"
           (Storage.kind_name kind))
        (40 * 41 / 2)
        (Engine.relation_size e "path"))
    Storage.all_kinds

let test_workloads_respect_two_phases () =
  let cfg = Pointsto_gen.scaled 0.05 in
  let e =
    Engine.create ~check_phases:true (Pointsto_gen.program cfg)
  in
  List.iter
    (fun (r, t) -> Engine.add_fact e r t)
    (Pointsto_gen.facts cfg (Rng.create 5));
  Pool.with_pool 4 (fun p -> Engine.run e p);
  check_bool "points-to under phase checking" true
    (Engine.relation_size e "vpt" > 0)

(* ---------------- shipped sample programs ---------------- *)

let programs_dir =
  (* tests run from the build sandbox; locate the source tree *)
  let candidates =
    [ "examples/programs"; "../examples/programs"; "../../examples/programs";
      "../../../examples/programs"; "../../../../examples/programs" ]
  in
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "same_generation.dl"))
    candidates

let with_programs f =
  match programs_dir with
  | Some dir -> f dir
  | None -> Alcotest.fail "examples/programs not found from the test sandbox" 

let test_program_same_generation () =
  with_programs (fun dir ->
      let prog = Parser.parse_file (Filename.concat dir "same_generation.dl") in
      let e = Engine.create prog in
      (* a full binary tree of depth 3: nodes 1..15, parent(i, 2i..2i+1) *)
      for i = 1 to 7 do
        Engine.add_fact e "parent" [| i; 2 * i |];
        Engine.add_fact e "parent" [| i; (2 * i) + 1 |]
      done;
      Pool.with_pool 2 (fun p -> Engine.run e p);
      (* same generation: pairs at depth 1 (2), depth 2 (4*3), depth 3 (8*7) *)
      check_int "sg pairs" ((2 * 1) + (4 * 3) + (8 * 7))
        (Engine.relation_size e "sg"))

let test_program_reachable_neg () =
  with_programs (fun dir ->
      let prog = Parser.parse_file (Filename.concat dir "reachable_neg.dl") in
      let e = Engine.create prog in
      for i = 0 to 9 do
        Engine.add_fact e "node" [| i |]
      done;
      List.iter
        (fun (a, b) -> Engine.add_fact e "edge" [| a; b |])
        [ (0, 1); (1, 2); (4, 5) ];
      Pool.with_pool 2 (fun p -> Engine.run e p);
      check_int "unreachable" 7 (Engine.relation_size e "unreachable"))

let test_program_degrees () =
  with_programs (fun dir ->
      let prog = Parser.parse_file (Filename.concat dir "degrees.dl") in
      let e = Engine.create prog in
      List.iter
        (fun (a, b) -> Engine.add_fact e "edge" [| a; b |])
        [ (1, 2); (1, 3); (1, 4); (2, 3); (3, 1) ];
      Pool.with_pool 2 (fun p -> Engine.run e p);
      check_bool "max degree 3, 5 edges" true
        (Engine.relation_list e "summary" = [ [| 3; 5 |] ]))

let test_program_distances () =
  with_programs (fun dir ->
      let prog = Parser.parse_file (Filename.concat dir "distances.dl") in
      let e = Engine.create prog in
      for i = 0 to 5 do
        Engine.add_fact e "edge" [| i; i + 1 |]
      done;
      Pool.with_pool 2 (fun p -> Engine.run e p);
      check_int "distances on a chain" (6 * 7 / 2) (Engine.relation_size e "dist"))

(* ---------------- differential: engine vs naive ---------------- *)

let rng seed =
  let s = ref (Key.mix64 (seed + 1)) in
  fun bound ->
    s := Key.mix64 (!s + 0x2545F4914F6CDD1D);
    !s mod bound

(* random stratifiable program over unary/binary predicates p0..p5 *)
let random_program seed =
  let r = rng seed in
  let npreds = 4 + r 3 in
  let arity i = if i mod 2 = 0 then 2 else 1 in
  let pred i = Printf.sprintf "p%d" i in
  let var v = Ast.Var (Printf.sprintf "v%d" v) in
  let decls =
    List.init npreds (fun i ->
        { Ast.name = pred i; arity = arity i; is_input = false; is_output = true })
  in
  let nrules = 3 + r 5 in
  let rules =
    List.init nrules (fun _ ->
        let h = r npreds in
        let nbody = 1 + r 2 in
        let vars_used = ref [] in
        let body_pos =
          List.init nbody (fun _ ->
              let b = r npreds in
              let args =
                List.init (arity b) (fun _ ->
                    let v = r 4 in
                    vars_used := v :: !vars_used;
                    var v)
              in
              Ast.Pos (Ast.atom (pred b) args))
        in
        (* optional negation on a strictly lower predicate, fully bound *)
        let body =
          if h > 0 && r 3 = 0 && !vars_used <> [] then begin
            let n = r h in
            let args =
              List.init (arity n) (fun i ->
                  var (List.nth !vars_used (i mod List.length !vars_used)))
            in
            body_pos @ [ Ast.Neg (Ast.atom (pred n) args) ]
          end
          else body_pos
        in
        let head_args =
          List.init (arity h) (fun i ->
              match !vars_used with
              | [] -> Ast.Int (r 3)
              | vs -> var (List.nth vs (i mod List.length vs)))
        in
        Ast.rule (Ast.atom (pred h) head_args) body)
  in
  (* random facts *)
  let nfacts = 5 + r 15 in
  let facts =
    List.init nfacts (fun _ ->
        let p = r npreds in
        Ast.fact (pred p) (List.init (arity p) (fun _ -> r 4)))
  in
  { Ast.decls; rules = rules @ facts }

let stratifiable prog =
  match Naive.run prog ~extra_facts:[] with
  | _ -> true
  | exception Stratify.Not_stratifiable _ -> false
  | exception Failure _ -> false

let compare_engine_vs_naive ?(threads = 1) ?(kind = Storage.Btree) prog =
  match Naive.run prog ~extra_facts:[] with
  | exception (Stratify.Not_stratifiable _ | Failure _) -> true (* skipped *)
  | reference -> (
    match Engine.create ~kind prog with
    | exception (Plan.Compile_error _ | Stratify.Not_stratifiable _) ->
      (* naive accepted but planner rejected: only allowed for unsafe rules
         naive silently tolerates; treat as failure to keep them aligned *)
      false
    | e ->
      Pool.with_pool threads (fun p -> Engine.run e p);
      List.for_all
        (fun name ->
          let got = tuples_sorted (Engine.relation_list e name) in
          let want =
            match Hashtbl.find_opt reference name with
            | Some l -> tuples_sorted l
            | None -> []
          in
          got = want)
        (Engine.relations e))

let prop_engine_matches_naive =
  QCheck.Test.make ~count:150 ~name:"engine = naive reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = random_program seed in
      QCheck.assume (stratifiable prog);
      compare_engine_vs_naive prog)

let prop_engine_matches_naive_parallel =
  QCheck.Test.make ~count:75 ~name:"parallel engine = naive reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = random_program (seed + 77) in
      QCheck.assume (stratifiable prog);
      compare_engine_vs_naive ~threads:4 prog)

let prop_all_kinds_agree =
  QCheck.Test.make ~count:40 ~name:"all storage kinds agree"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = random_program (seed + 123) in
      QCheck.assume (stratifiable prog);
      List.for_all
        (fun kind -> compare_engine_vs_naive ~kind prog)
        Storage.all_kinds)

(* Regression test for the tree's inner-split publication race: the
   network workload's large recursive deltas go through the separator-
   partitioned parallel merge, where two workers hold neighbouring leaves
   while splits climb into the ancestors they share.  Before the new inner
   sibling was latched from birth, a few runs in a hundred produced a
   wrong [reach] (duplicates and lost tuples) at two domains. *)
let test_parallel_engine_matches_serial () =
  let cfg = Network_gen.scaled 0.1 in
  Pool.with_pool 1 (fun serial ->
      Pool.with_pool 2 (fun parallel ->
          for seed = 1 to 300 do
            let facts = Network_gen.facts cfg (Rng.create seed) in
            let eval pool =
              let e = Engine.create Network_gen.program in
              List.iter (fun (r, t) -> Engine.add_fact e r t) facts;
              Engine.run e pool;
              Engine.relation_list e Network_gen.output_relation
            in
            let want = eval serial and got = eval parallel in
            if
              List.compare_lengths want got <> 0
              || not (List.for_all2 (fun a b -> Key.Int_array.compare a b = 0) want got)
            then
              Alcotest.failf "seed %d: %d reach tuples at 2 domains, %d at 1" seed
                (List.length got) (List.length want)
          done))

(* ---------------- incremental runs ---------------- *)

(* Three-way differential: a random stratified program (negation
   included) fed a random sequence of fact batches.  After every batch the
   resident engine, which applies only the batch, must equal an engine
   rebuilt from its base facts and the naive reference over every fact
   so far.  Facts land in derived relations too, so base facts asserted
   into a relation with rules must survive the rebuild apart from the
   tuples derived into it.  Seeds cycle through the storage kinds. *)
let incremental_three_way seed =
  let prog = random_program seed in
  if not (stratifiable prog) then None
  else begin
    let r = rng (seed + 4242) in
    let decls = Array.of_list prog.Ast.decls in
    let random_fact () =
      let d = decls.(r (Array.length decls)) in
      (d.Ast.name, Array.init d.Ast.arity (fun _ -> r 5))
    in
    let batches =
      List.init (2 + r 5) (fun _ -> List.init (1 + r 6) (fun _ -> random_fact ()))
    in
    let same e reference =
      List.for_all
        (fun name ->
          tuples_sorted (Engine.relation_list e name)
          = tuples_sorted
              (Option.value ~default:[] (Hashtbl.find_opt reference name)))
        (Engine.relations e)
    in
    let kind = List.nth Storage.all_kinds (seed mod List.length Storage.all_kinds) in
    let resident = Engine.create ~kind ~check_phases:true prog in
    let so_far = ref [] in
    let ok =
      Pool.with_pool 1 @@ fun pool ->
      List.for_all
        (fun batch ->
          List.iter (fun (name, tup) -> Engine.add_fact resident name tup) batch;
          so_far := !so_far @ batch;
          Engine.run resident pool;
          let rebuilt = Engine.create ~kind ~check_phases:true ~from:resident prog in
          Engine.run rebuilt pool;
          let reference = Naive.run prog ~extra_facts:!so_far in
          same resident reference && same rebuilt reference)
        batches
    in
    Some ok
  end

let test_incremental_three_way () =
  let checked = ref 0 and bad = ref [] in
  let seed = ref 0 in
  while !checked < 300 do
    incr seed;
    match incremental_three_way !seed with
    | None -> ()
    | Some ok ->
      incr checked;
      if not ok then bad := !seed :: !bad
  done;
  if !bad <> [] then
    Alcotest.failf "%d of %d seeds mismatch, first %d" (List.length !bad)
      !checked (List.hd (List.rev !bad))

(* Aggregates over a changed relation force their stratum to be
   recomputed; a positive-only consumer downstream of it must follow. *)
let test_incremental_aggregates () =
  let src =
    {|
    .decl edge(x:number, y:number)
    .decl outdeg(x:number, n:number)
    .decl busy(x:number)
    .decl calm(x:number)
    .decl node(x:number)
    node(x) :- edge(x, _).
    node(y) :- edge(_, y).
    outdeg(x, n) :- node(x), n = count : { edge(x, _) }.
    busy(x) :- outdeg(x, n), n > 1.
    calm(x) :- node(x), !busy(x).
    |}
  in
  let prog = Parser.parse_string src in
  let e = Engine.create prog in
  let facts = ref [] in
  Pool.with_pool 1 @@ fun pool ->
  List.iter
    (fun batch ->
      List.iter (fun (a, b) -> Engine.add_fact e "edge" [| a; b |]) batch;
      facts := !facts @ List.map (fun (a, b) -> ("edge", [| a; b |])) batch;
      Engine.run e pool;
      let reference = Naive.run prog ~extra_facts:!facts in
      List.iter
        (fun name ->
          check_bool name true
            (tuples_sorted (Engine.relation_list e name)
            = tuples_sorted
                (Option.value ~default:[] (Hashtbl.find_opt reference name))))
        (Engine.relations e))
    [ [ (1, 2); (2, 3) ]; [ (1, 3) ]; [ (3, 1); (3, 2) ]; [ (4, 4) ] ]

(* Flip work stays flat as the resident database grows: one fresh
   [new(v, o)] fact on a points-to database derives exactly one [vpt]
   tuple whatever the size, so a run that applies only the fact must do
   the same evaluation work — same rounds, rule evaluations, promoted
   tuples and storage operations — on a database ten times larger. *)
let test_incremental_flat_work () =
  let counters =
    Telemetry.Counter.[ Eval_iterations; Eval_rule_evals; Eval_delta_tuples ]
  in
  let work scale =
    let cfg = Pointsto_gen.scaled scale in
    let e = Engine.create ~instrument:true (Pointsto_gen.program cfg) in
    List.iter
      (fun (r, t) -> Engine.add_fact e r t)
      (Pointsto_gen.facts cfg (Rng.create 1));
    Pool.with_pool 1 @@ fun pool ->
    Engine.run e pool;
    let before = Option.get (Engine.stats e) in
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    let t0 = Telemetry.snapshot () in
    Engine.add_fact e "new" [| cfg.Pointsto_gen.variables + 1; 0 |];
    Engine.run e pool;
    let t1 = Telemetry.snapshot () in
    let after = Option.get (Engine.stats e) in
    ( Engine.relation_size e "vpt",
      List.map (fun c -> Telemetry.get t1 c - Telemetry.get t0 c) counters,
      Dl_stats.
        [
          after.s_inserts - before.s_inserts;
          after.s_mem_tests - before.s_mem_tests;
          after.s_lower_bounds - before.s_lower_bounds;
          after.s_input_tuples - before.s_input_tuples;
          after.s_produced_tuples - before.s_produced_tuples;
        ] )
  in
  let small_vpt, small_eval, small_ops = work 0.02 in
  let large_vpt, large_eval, large_ops = work 0.2 in
  check_bool "the large database is larger" true (large_vpt > 5 * small_vpt);
  Alcotest.(check (list int)) "rounds, rule evaluations, promoted tuples"
    small_eval large_eval;
  Alcotest.(check (list int)) "storage operations" small_ops large_ops;
  check_int "one promoted tuple" 1 (List.nth large_eval 2)

(* A non-recursive stratum writes its heads into their full relations as
   one sorted batch: on the bulk-load program, a batch of 1000 fresh [kv]
   rows derives 1000 [byv] tuples, counted as 1000 inserts, every one
   fresh.  Nothing reads [byv], so the batch write's own count of fresh
   tuples is all that is needed: not one membership probe.  With a rule
   that reads [byv] downstream, the tuples [byv] gained seed that rule,
   so they are found with one probe against [byv] per distinct tuple. *)
let test_direct_insert_op_counts () =
  let counts reader =
    let prog =
      Parser.parse_string
        (".decl kv(k:symbol, v:number)\n.decl byv(v:number, k:symbol)\n\
          .decl low(v:number)\n\
          byv(v, k) :- kv(k, v).\n" ^ reader)
    in
    let e = Engine.create ~instrument:true ~check_phases:true prog in
    let rows lo n =
      Array.init n (fun i ->
          let k = Printf.sprintf "key_%06d_%s" (lo + i) (String.make 40 'x') in
          [| Engine.intern e k; (lo + i) mod 97 |])
    in
    Engine.add_fact_run e "kv" (rows 0 5000);
    Pool.with_pool 1 @@ fun pool ->
    Engine.run e pool;
    let before = Option.get (Engine.stats e) in
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    let t0 = Telemetry.snapshot () in
    Engine.add_fact_run e "kv" (rows 5000 1000);
    Engine.run e pool;
    let t1 = Telemetry.snapshot () in
    let after = Option.get (Engine.stats e) in
    check_int "byv" 6000 (Engine.relation_size e "byv");
    ( after.s_mem_tests - before.s_mem_tests,
      after.s_inserts - before.s_inserts,
      after.s_produced_tuples - before.s_produced_tuples,
      Telemetry.get t1 Telemetry.Counter.Eval_delta_tuples
      - Telemetry.get t0 Telemetry.Counter.Eval_delta_tuples )
  in
  let probes, inserts, produced, delta = counts "" in
  check_int "membership probes" 0 probes;
  check_int "inserts" 1000 inserts;
  check_int "produced" 1000 produced;
  check_int "delta tuples" 1000 delta;
  (* no v passes 96, so [low] emits nothing; nothing reads [low] either,
     so every probe is one against [byv] *)
  let probes, _, _, _ = counts "low(v) :- byv(v, _), v > 96.\n" in
  check_int "membership probes with a reader" 1000 probes

(* Direct insertion from two domains: batches of at least 64 fresh edges
   make the delta rule of the non-recursive [flip] split its outer scan
   over the pool, so both workers insert into [flip] at once.  [flip]
   has a positive reader downstream ([hub], [reach]: each seeded with
   what [flip] gained) and a negated one ([quiet]); [hub] is direct too
   and carries a comparison, a step that opens no relation.  Every
   storage kind, under phase checking, after every batch, equals the
   naive reference. *)
let test_direct_insert_parallel_differential () =
  let prog =
    Parser.parse_string
      {|
      .decl e(x:number, y:number)
      .decl flip(x:number, y:number)
      .decl hub(x:number)
      .decl reach(x:number, y:number)
      .decl node(x:number)
      .decl quiet(x:number)
      flip(y, x) :- e(x, y).
      hub(x) :- flip(x, y), y > 20.
      reach(x, y) :- flip(x, y).
      reach(x, z) :- reach(x, y), flip(y, z).
      node(x) :- e(x, _).
      node(y) :- e(_, y).
      quiet(x) :- node(x), !hub(x).
      |}
  in
  let r = rng 99 in
  let seen = Hashtbl.create 1024 in
  let batch n =
    let out = ref [] in
    while List.length !out < n do
      let edge = (r 40, r 40) in
      if not (Hashtbl.mem seen edge) then begin
        Hashtbl.add seen edge ();
        out := ("e", [| fst edge; snd edge |]) :: !out
      end
    done;
    !out
  in
  let batches = List.map batch [ 64; 100; 64; 150 ] in
  Pool.with_pool 2 @@ fun pool ->
  List.iter
    (fun kind ->
      let e = Engine.create ~kind ~check_phases:true prog in
      let so_far = ref [] in
      List.iteri
        (fun i b ->
          List.iter (fun (name, tup) -> Engine.add_fact e name tup) b;
          so_far := !so_far @ b;
          Engine.run e pool;
          let reference = Naive.run prog ~extra_facts:!so_far in
          List.iter
            (fun name ->
              Alcotest.(check (list (array int)))
                (Printf.sprintf "%s, batch %d, %s" (Storage.kind_name kind) i
                   name)
                (tuples_sorted
                   (Option.value ~default:[] (Hashtbl.find_opt reference name)))
                (tuples_sorted (Engine.relation_list e name)))
            (Engine.relations e))
        batches)
    Storage.all_kinds

(* A duplicate-heavy direct projection: [p(x) :- e(x, _)] emits each
   node once per out-edge, so the batch [promote] writes is mostly
   duplicates, within a worker and across workers, and on later runs
   mostly tuples [p] already holds.  [p] also has a base fact and is read
   by the recursive [r] downstream, which is seeded with what [p] gained.
   Every storage kind, under phase checking, at 1 and 2 domains (batches
   of at least 64 edges split the outer scan), equals the naive reference
   after every batch. *)
let test_direct_projection_differential () =
  let prog =
    Parser.parse_string
      {|
      .decl e(x:number, y:number)
      .decl p(x:number)
      .decl r(x:number, y:number)
      p(x) :- e(x, _).
      r(x, y) :- p(x), e(x, y).
      r(x, z) :- r(x, y), e(y, z), p(z).
      |}
  in
  let r = rng 41 in
  let seen = Hashtbl.create 1024 in
  let batch n =
    let out = ref [] in
    while List.length !out < n do
      let edge = (r 24, r 24) in
      if not (Hashtbl.mem seen edge) then begin
        Hashtbl.add seen edge ();
        out := ("e", [| fst edge; snd edge |]) :: !out
      end
    done;
    !out
  in
  let batches =
    (("p", [| 99 |]) :: batch 80) :: List.map batch [ 64; 120; 70 ]
  in
  List.iter
    (fun domains ->
      Pool.with_pool domains @@ fun pool ->
      List.iter
        (fun kind ->
          let e = Engine.create ~kind ~check_phases:true prog in
          let so_far = ref [] in
          List.iteri
            (fun i b ->
              List.iter (fun (name, tup) -> Engine.add_fact e name tup) b;
              so_far := !so_far @ b;
              Engine.run e pool;
              let reference = Naive.run prog ~extra_facts:!so_far in
              List.iter
                (fun name ->
                  Alcotest.(check (list (array int)))
                    (Printf.sprintf "%s, %d domains, batch %d, %s"
                       (Storage.kind_name kind) domains i name)
                    (tuples_sorted
                       (Option.value ~default:[]
                          (Hashtbl.find_opt reference name)))
                    (tuples_sorted (Engine.relation_list e name)))
                (Engine.relations e))
            batches)
        Storage.all_kinds)
    [ 1; 2 ]

(* ---------------- pattern queries ---------------- *)

(* [Relation.Reader.query] against a filtered [Relation.iter]: every
   storage kind, arity 1-4, every bound mask, 1-3 secondary signatures
   (so chain-cover orders and exact-signature hash maps both serve),
   random contents, probe values present and absent.  The examined count
   lies between the rows and the cardinality, and equals the rows when
   an index covers the bound set: a declared signature, or a prefix of
   the primary's order for the ordered kinds. *)
let test_query_differential () =
  let kinds = Array.of_list Storage.all_kinds in
  for seed = 0 to 239 do
    let rand = rng (seed + 7) in
    let kind = kinds.(seed mod Array.length kinds) in
    let arity = 1 + (seed / Array.length kinds mod 4) in
    let random_sig () =
      let cols = List.filter (fun _ -> rand 2 = 0) (List.init arity Fun.id) in
      Array.of_list (if cols = [] then [ rand arity ] else cols)
    in
    let sigs = List.init (1 + rand 3) (fun _ -> random_sig ()) in
    let r = Relation.create ~name:"q" ~arity ~kind ~sigs ~stats:None () in
    let dom = 2 + rand 5 in
    for _ = 1 to rand 300 do
      ignore (Relation.insert r (Array.init arity (fun _ -> rand dom)) : bool)
    done;
    let card = Relation.cardinal r in
    let covered cols =
      List.mem cols sigs
      || Storage.shares_indexes kind
         && cols = Array.init (Array.length cols) Fun.id
    in
    let rd = Relation.begin_read r in
    for mask = 0 to (1 lsl arity) - 1 do
      for _ = 1 to 4 do
        (* values up to dom + 1: some probes are absent *)
        let pat =
          Array.init arity (fun i ->
              if mask land (1 lsl i) <> 0 then Some (rand (dom + 2)) else None)
        in
        let matches tup =
          Array.for_all2
            (fun p v -> match p with Some x -> x = v | None -> true)
            pat tup
        in
        let want = ref [] in
        Relation.iter r (fun tup -> if matches tup then want := tup :: !want);
        let got = ref [] in
        let examined =
          Relation.Reader.query rd pat (fun tup -> got := tup :: !got)
        in
        let what =
          Printf.sprintf "seed %d %s arity %d mask %d" seed
            (Storage.kind_name kind) arity mask
        in
        let rows = List.length !got in
        Alcotest.(check (list (array int)))
          what (tuples_sorted !want) (tuples_sorted !got);
        check_bool (what ^ ": examined >= rows") true (examined >= rows);
        check_bool (what ^ ": examined <= cardinal") true (examined <= card);
        let bound =
          Array.of_list
            (List.filter (fun i -> mask land (1 lsl i) <> 0)
               (List.init arity Fun.id))
        in
        if Array.length bound = arity || covered bound then
          check_int (what ^ ": served exactly") rows examined
      done
    done;
    Relation.Reader.finish rd
  done

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "datalog"
    [
      ( "parser",
        [
          tc "basic" `Quick test_parse_basic;
          tc "negation and symbols" `Quick test_parse_negation_and_syms;
          tc "comments and wildcards" `Quick test_parse_comments_wildcards;
          tc "errors" `Quick test_parse_errors;
          tc "roundtrip" `Quick test_parse_roundtrip;
        ] );
      ( "stratify",
        [
          tc "linear" `Quick test_stratify_linear;
          tc "scc" `Quick test_stratify_scc;
          tc "negation ok" `Quick test_stratify_negation_ok;
          tc "negative cycle" `Quick test_stratify_negative_cycle;
        ] );
      ( "storage",
        [
          tc "signature scan" `Quick test_index_signature_scan;
          tc "empty scan" `Quick test_index_empty_scan;
          tc "stats counting" `Quick test_index_stats_counting;
          tc "symbol table = Hashtbl model" `Quick test_symtab_model;
        ] );
      ( "evaluation",
        [
          tc "transitive closure (all kinds)" `Quick test_transitive_closure_all_kinds;
          tc "parallel = sequential" `Quick test_parallel_equals_sequential;
          tc "cycle closure" `Quick test_cycle_closure;
          tc "negation" `Quick test_negation_unreachable;
          tc "symbols" `Quick test_symbols;
          tc "constants" `Quick test_constants_in_rules;
          tc "repeated vars" `Quick test_repeated_vars;
          tc "mutual recursion" `Quick test_mutual_recursion;
        ] );
      ( "index selection",
        [
          tc "chain" `Quick test_index_selection_chain;
          tc "antichain" `Quick test_index_selection_antichain;
          tc "diamond" `Quick test_index_selection_diamond;
          tc "relation sharing" `Quick test_relation_shares_indexes;
        ] );
      qsuite "index selection properties"
        [ prop_index_selection_sound_and_optimal ];
      qsuite "parser fuzz" [ prop_parser_roundtrip; prop_parser_no_crash ];
      ( "constraints",
        [
          tc "parse" `Quick test_parse_constraints;
          tc "comparison filter" `Quick test_comparison_filter;
          tc "assignment" `Quick test_assignment_binding;
          tc "arithmetic head" `Quick test_arithmetic_in_head;
          tc "bounded counter" `Quick test_bounded_counter_recursion;
          tc "path lengths" `Quick test_path_lengths;
          tc "unsafe comparison" `Quick test_unsafe_comparison_rejected;
          tc "ground arithmetic fact" `Quick test_ground_arith_fact;
          tc "vs naive" `Quick test_constraints_vs_naive;
          tc "instrumentation" `Quick test_instrumentation_counts;
          tc "rule profile" `Quick test_rule_profile;
        ] );
      ( "aggregates",
        [
          tc "count" `Quick test_agg_count;
          tc "min/max/sum" `Quick test_agg_min_max_sum;
          tc "min over empty" `Quick test_agg_min_empty_body;
          tc "count over empty" `Quick test_agg_count_empty_is_zero;
          tc "correlated + filter" `Quick test_agg_correlated;
          tc "vs naive" `Quick test_agg_vs_naive;
          tc "inner scope" `Quick test_agg_inner_scope;
          tc "recursion rejected" `Quick test_agg_recursion_rejected;
          tc "bound result checks" `Quick test_agg_result_checked_when_bound;
        ] );
      ( "two-phase discipline",
        [
          tc "violation detected" `Quick test_phase_checker_detects_violation;
          tc "phases allowed" `Quick test_phase_checker_allows_phases;
          tc "typed handles" `Quick test_typed_phase_handles;
          tc "stale handles" `Quick test_stale_phase_handles;
          tc "finished handles release cursors" `Quick
            test_finished_handles_release_cursors;
          tc "reader cost flat in signatures" `Quick
            test_reader_cost_flat_in_signatures;
          tc "engine respects phases" `Quick test_engine_respects_two_phases;
          tc "workloads respect phases" `Quick test_workloads_respect_two_phases;
        ] );
      ( "batch merge",
        [
          tc "parallel vs serial" `Quick test_merge_batch_parallel_vs_serial;
          tc "empty and small" `Quick test_index_merge_empty_and_small;
        ] );
      ( "sample programs",
        [
          tc "same generation" `Quick test_program_same_generation;
          tc "reachability + negation" `Quick test_program_reachable_neg;
          tc "degrees (aggregates)" `Quick test_program_degrees;
          tc "distances" `Quick test_program_distances;
        ] );
      ( "io",
        [
          tc "tsv roundtrip" `Quick test_io_roundtrip;
          tc "symbols" `Quick test_io_symbols;
          tc "arity error" `Quick test_io_arity_error;
        ] );
      ( "static checks",
        [
          tc "unsafe rules" `Quick test_unsafe_rules_rejected;
          tc "arity mismatch" `Quick test_arity_mismatch_rejected;
          tc "non-stratifiable" `Quick test_non_stratifiable_rejected;
        ] );
      ( "differential",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_engine_matches_naive;
            prop_engine_matches_naive_parallel;
            prop_all_kinds_agree;
          ]
        @ [
            tc "parallel engine = serial (network)" `Quick
              test_parallel_engine_matches_serial;
          ] );
      ( "incremental",
        [
          tc "incremental = rebuild = naive" `Quick test_incremental_three_way;
          tc "aggregates and negation downstream" `Quick
            test_incremental_aggregates;
          tc "flip work flat in database size" `Quick test_incremental_flat_work;
          tc "direct insertion op counts" `Quick test_direct_insert_op_counts;
          tc "direct insertion from two domains = naive" `Quick
            test_direct_insert_parallel_differential;
          tc "duplicate-heavy direct projection = naive" `Quick
            test_direct_projection_differential;
        ] );
      ( "pattern query",
        [ tc "query = filtered iter" `Quick test_query_differential ] );
    ]
