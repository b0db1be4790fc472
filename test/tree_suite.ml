(* The tree test suite shared by every instance of [Btree_core]: the
   concurrent plain tree, its sequential twin and the tuple tree all run
   these cases.  Keys are generated as integers and mapped through the
   instance's order-preserving [key], so one model ([ISet]) serves every
   instance.  Instance-specific cases stay in the per-instance test files. *)

module ISet = Set.Make (Int)

module type INSTANCE = sig
  include Btree_core.OPS

  val make : ?capacity:int -> ?binary_search:bool -> unit -> t

  val key : int -> key
  (** Order-preserving injection of the integers into the key type. *)

  val int_of : key -> int

  val concurrent : bool
  (** Whether the instance is thread-safe (the sequential twin is not). *)

  val of_sorted : (capacity:int -> key array -> t) option
  (** The bulk builder, where the instance has one. *)
end

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))
let int_opt = Alcotest.(option int)

(* deterministic pseudo-random stream *)
let rng seed =
  let s = ref (Key.mix64 (seed + 1)) in
  fun bound ->
    s := Key.mix64 (!s + 0x2545F4914F6CDD1D);
    !s mod bound

let domains_for_stress () = min 8 (max 2 (Domain.recommended_domain_count ()))
let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

module Make (I : INSTANCE) = struct
  let k = I.key
  let ints l = List.map I.int_of l
  let to_ints t = ints (I.to_list t)
  let opt = Option.map I.int_of
  let ins t x = ignore (I.insert t (k x) : bool)
  let insert_all t l = List.iter (ins t) l
  let of_list ?capacity l =
    let t = I.make ?capacity () in
    insert_all t l;
    t

  let sorted_run keys = Array.of_list (List.map k (ISet.elements (ISet.of_list keys)))

  (* ---------------- basics ---------------- *)

  let test_empty () =
    let t = I.make () in
    check_bool "is_empty" true (I.is_empty t);
    check_int "cardinal" 0 (I.cardinal t);
    check_bool "mem" false (I.mem t (k 42));
    Alcotest.check int_opt "min" None (opt (I.min_elt t));
    Alcotest.check int_opt "max" None (opt (I.max_elt t));
    Alcotest.check int_opt "lb" None (opt (I.lower_bound t (k 0)));
    check_ilist "to_list" [] (to_ints t);
    I.check_invariants t

  let test_singleton () =
    let t = I.make () in
    check_bool "first insert" true (I.insert t (k 7));
    check_bool "duplicate insert" false (I.insert t (k 7));
    check_bool "mem present" true (I.mem t (k 7));
    check_bool "mem absent" false (I.mem t (k 8));
    check_int "cardinal" 1 (I.cardinal t);
    Alcotest.check int_opt "min" (Some 7) (opt (I.min_elt t));
    Alcotest.check int_opt "max" (Some 7) (opt (I.max_elt t));
    I.check_invariants t

  let test_ordered_bulk () =
    let t = I.make ~capacity:4 () in
    let n = 10_000 in
    for i = 0 to n - 1 do
      check_bool "fresh" true (I.insert t (k i))
    done;
    check_int "cardinal" n (I.cardinal t);
    check_ilist "sorted iteration" (List.init 20 Fun.id)
      (List.filteri (fun i _ -> i < 20) (to_ints t));
    for i = 0 to n - 1 do
      if not (I.mem t (k i)) then Alcotest.failf "lost key %d" i
    done;
    check_bool "beyond max" false (I.mem t (k n));
    I.check_invariants t

  (* the same ascending stream through a session: the hinted path *)
  let test_ordered_hinted () =
    let t = I.make ~capacity:4 () in
    let s = I.session t in
    for i = 0 to 9999 do
      check_bool "fresh" true (I.s_insert s (k i))
    done;
    check_int "cardinal" 10_000 (I.cardinal t);
    I.check_invariants t;
    for i = 0 to 9999 do
      if not (I.s_mem s (k i)) then Alcotest.failf "lost %d" i
    done

  let test_random_vs_model () =
    let r = rng 42 in
    let t = I.make ~capacity:8 () in
    let model = ref ISet.empty in
    for _ = 1 to 20_000 do
      let x = r 5000 in
      check_bool "insert result matches model"
        (not (ISet.mem x !model))
        (I.insert t (k x));
      model := ISet.add x !model
    done;
    check_ilist "contents match model" (ISet.elements !model) (to_ints t);
    I.check_invariants t

  let test_reverse_order () =
    let t = I.make ~capacity:5 () in
    for i = 1000 downto 1 do
      ins t i
    done;
    check_int "cardinal" 1000 (I.cardinal t);
    check_ilist "first elements" [ 1; 2; 3 ]
      (List.filteri (fun i _ -> i < 3) (to_ints t));
    I.check_invariants t

  let test_capacity_three () =
    (* minimal capacity maximises split pressure *)
    let t = I.make ~capacity:3 () in
    let r = rng 11 in
    let model = ref ISet.empty in
    for _ = 1 to 5000 do
      let x = r 2000 in
      ins t x;
      model := ISet.add x !model
    done;
    check_ilist "capacity 3 contents" (ISet.elements !model) (to_ints t);
    I.check_invariants t

  let test_stats () =
    let t = of_list ~capacity:4 (List.init 1000 Fun.id) in
    let s = I.stats t in
    check_int "stats elements" 1000 s.I.elements;
    check_bool "has inner nodes" true (s.I.height > 1);
    check_bool "fill in (0,1]" true (s.I.fill > 0.0 && s.I.fill <= 1.0);
    check_bool "leaves <= nodes" true (s.I.leaves <= s.I.nodes)

  let test_bounds_small () =
    let t = of_list ~capacity:4 [ 10; 20; 30; 40; 50 ] in
    let lb x = opt (I.lower_bound t (k x)) and ub x = opt (I.upper_bound t (k x)) in
    Alcotest.check int_opt "lb exact" (Some 30) (lb 30);
    Alcotest.check int_opt "lb between" (Some 30) (lb 21);
    Alcotest.check int_opt "lb below" (Some 10) (lb (-5));
    Alcotest.check int_opt "lb above" None (lb 51);
    Alcotest.check int_opt "ub exact" (Some 40) (ub 30);
    Alcotest.check int_opt "ub max" None (ub 50)

  let collect_from iter_from t start ~upto =
    let seen = ref [] in
    iter_from
      (fun x ->
        let x = I.int_of x in
        x <= upto
        && begin
             seen := x :: !seen;
             true
           end)
      t (k start);
    List.rev !seen

  (* a scan starting between two keys, unhinted and through a session
     (a cold scan, then one that may start from the cached leaf) *)
  let test_iter_from_between () =
    let t = of_list ~capacity:4 (List.init 100 (fun i -> i * 2)) in
    let expect = [ 42; 44; 46; 48; 50; 52; 54; 56; 58; 60 ] in
    check_ilist "range" expect (collect_from I.iter_from t 41 ~upto:60);
    let s = I.session t in
    for _ = 1 to 2 do
      check_ilist "hinted range" expect
        (collect_from (fun f _ x -> I.s_iter_from f s x) t 41 ~upto:60)
    done

  let test_hinted_ops () =
    let t = I.make () in
    let s = I.session t in
    let n = 10_000 in
    for i = 0 to n - 1 do
      ignore (I.s_insert s (k i) : bool)
    done;
    I.check_invariants t;
    check_int "cardinal" n (I.cardinal t);
    let hits, misses = I.hint_counters (I.s_hints s) in
    check_bool "ordered stream hits" true (hits > misses * 5);
    for i = 0 to n - 1 do
      if not (I.s_mem s (k i)) then Alcotest.failf "lost %d" i
    done

  (* batch inserts account hints too: one hit or miss per leaf visited *)
  let test_batch_run_hist () =
    let t = I.make ~capacity:8 () in
    let s = I.session t in
    for w = 0 to 99 do
      ignore (I.s_insert_batch s (Array.init 50 (fun i -> k ((w * 50) + i))) : int)
    done;
    let _, misses = I.hint_counters (I.s_hints s) in
    let runs = I.hint_run_hist (I.s_hints s) in
    let recorded = Array.fold_left ( + ) 0 runs in
    check_bool "one run per miss (+ open run)" true
      (recorded = misses || recorded = misses + 1);
    check_int "cardinal" 5000 (I.cardinal t);
    I.check_invariants t

  let test_shape_binary () =
    let t = I.make ~capacity:8 ~binary_search:true () in
    let sh0 = I.shape t in
    check_int "empty shape: no nodes" 0 sh0.Tree_shape.nodes;
    check_int "empty shape: height 0" 0 sh0.Tree_shape.height;
    insert_all t (List.init 10_000 Fun.id);
    I.check_invariants t;
    let sh = I.shape t in
    check_int "elements = cardinal" (I.cardinal t) sh.Tree_shape.elements;
    check_bool "has inner levels" true (sh.Tree_shape.height > 1);
    check_bool "fill in (0,1]" true
      (sh.Tree_shape.fill > 0.0 && sh.Tree_shape.fill <= 1.0)

  (* ---------------- queries ---------------- *)

  let test_bounds_vs_model () =
    let r = rng 7 in
    let t = I.make ~capacity:6 () in
    let model = ref ISet.empty in
    for _ = 1 to 3000 do
      let x = r 1000 * 2 in
      ins t x;
      model := ISet.add x !model
    done;
    for probe = -5 to 2005 do
      Alcotest.check int_opt
        (Printf.sprintf "lower_bound %d" probe)
        (ISet.find_first_opt (fun x -> x >= probe) !model)
        (opt (I.lower_bound t (k probe)));
      Alcotest.check int_opt
        (Printf.sprintf "upper_bound %d" probe)
        (ISet.find_first_opt (fun x -> x > probe) !model)
        (opt (I.upper_bound t (k probe)))
    done

  let test_iter_from () =
    let t = of_list ~capacity:4 (List.init 100 (fun i -> i * 3)) in
    let expect =
      List.filter (fun x -> x >= 50 && x < 100) (List.init 100 (fun i -> i * 3))
    in
    check_ilist "range scan" expect (collect_from I.iter_from t 50 ~upto:99);
    check_ilist "empty suffix scan" [] (collect_from I.iter_from t 1000 ~upto:max_int)

  let test_iter_while () =
    let t = of_list (List.init 100 Fun.id) in
    let count = ref 0 in
    I.iter_while
      (fun _ ->
        incr count;
        !count < 10)
      t;
    check_int "stopped after 10" 10 !count

  (* ---------------- hints ---------------- *)

  let hint_total s =
    let hits, misses = I.hint_counters (I.s_hints s) in
    hits + misses

  let test_hints_ordered () =
    let t = I.make ~capacity:8 () in
    let h = I.session t in
    let n = 20_000 in
    for i = 0 to n - 1 do
      ignore (I.s_insert h (k i) : bool)
    done;
    check_int "cardinal with hints" n (I.cardinal t);
    I.check_invariants t;
    let hits, _ = I.hint_counters (I.s_hints h) in
    check_bool "ordered insert exploits hints" true (hits > n / 2);
    for i = 0 to n - 1 do
      if not (I.s_mem h (k i)) then Alcotest.failf "hinted mem lost %d" i
    done;
    let hits', _ = I.hint_counters (I.s_hints h) in
    check_bool "ordered find exploits hints" true (hits' - hits > n / 2)

  let test_hints_ordered_hits () =
    let t = I.make ~capacity:8 () in
    let h = I.session t in
    let n = 10_000 in
    for i = 0 to n - 1 do
      ignore (I.s_insert h (k i) : bool)
    done;
    let hits, _ = I.hint_counters (I.s_hints h) in
    check_bool "hints dominate on ordered stream" true (hits > 9 * n / 10)

  (* an ascending pass of membership probes, and one of lower bounds, each
     through a fresh session, misses its hint once per leaf at most: a
     probe equal to a separator leaves the hint on the leaf right of it *)
  let test_hints_ordered_reads_miss_once_per_leaf () =
    let t = I.make ~capacity:8 () in
    let n = 20_000 in
    let h = I.session t in
    for i = 0 to n - 1 do
      ignore (I.s_insert h (k i) : bool)
    done;
    let leaves = (I.shape t).Tree_shape.leaves in
    let pass what read =
      let s = I.session t in
      for i = 0 to n - 1 do
        read s (k i)
      done;
      let _, misses = I.hint_counters (I.s_hints s) in
      if misses > leaves + 1 then
        Alcotest.failf "%s: %d misses over %d leaves" what misses leaves
    in
    pass "s_mem" (fun s key ->
        if not (I.s_mem s key) then Alcotest.failf "hinted mem lost %d" (I.int_of key));
    pass "s_lower_bound" (fun s key ->
        if I.s_lower_bound s key <> Some key then
          Alcotest.failf "hinted lower bound of %d" (I.int_of key))

  let hinted_random_vs_model ~seed ~capacity ~range ~n ~probes () =
    let r = rng seed in
    let t = I.make ~capacity () in
    let h = I.session t in
    let model = ref ISet.empty in
    for _ = 1 to n do
      let x = r range in
      check_bool "hinted insert matches model"
        (not (ISet.mem x !model))
        (I.s_insert h (k x));
      model := ISet.add x !model
    done;
    check_ilist "hinted random contents" (ISet.elements !model) (to_ints t);
    for _ = 1 to probes do
      let p = r range in
      Alcotest.check int_opt "hinted lb"
        (ISet.find_first_opt (fun x -> x >= p) !model)
        (opt (I.s_lower_bound h (k p)));
      Alcotest.check int_opt "hinted ub"
        (ISet.find_first_opt (fun x -> x > p) !model)
        (opt (I.s_upper_bound h (k p)));
      check_bool "hinted mem" (ISet.mem p !model) (I.s_mem h (k p))
    done;
    I.check_invariants t

  (* every hinted single-key operation counts exactly one hit or one miss *)
  let test_hint_one_count_per_op () =
    let r = rng 31 in
    let t = I.make ~capacity:4 () in
    let s = I.session t in
    for step = 1 to 4000 do
      let x = k (r 3000) in
      let before = hint_total s in
      (match step mod 6 with
      | 0 -> ignore (I.s_insert s x : bool)
      | 1 -> ignore (I.s_mem s x : bool)
      | 2 -> ignore (I.s_lower_bound s x : I.key option)
      | 3 -> ignore (I.s_upper_bound s x : I.key option)
      | 4 -> I.s_iter_from (fun _ -> false) s x
      | _ -> I.s_iter_from (fun _ -> true) s x);
      if hint_total s <> before + 1 then
        Alcotest.failf "step %d counted %d hint outcomes" step
          (hint_total s - before)
    done

  (* a fresh session starts from zero, and every miss closes the open run:
     miss, hit, miss leaves one 0-hit run and one 1-hit run *)
  let test_hint_run_reset () =
    let t = of_list ~capacity:4 (List.init 100 Fun.id) in
    let s = I.session t in
    check_bool "fresh counters" true (I.hint_counters (I.s_hints s) = (0, 0));
    check_bool "fresh run histogram" true
      (Array.for_all (fun c -> c = 0) (I.hint_run_hist (I.s_hints s)));
    ignore (I.s_mem s (k 0) : bool);
    ignore (I.s_mem s (k 0) : bool);
    ignore (I.s_upper_bound s (k 0) : I.key option);
    check_bool "miss, hit, miss" true (I.hint_counters (I.s_hints s) = (1, 2));
    let runs = I.hint_run_hist (I.s_hints s) in
    check_int "0-hit run" 1 runs.(0);
    check_int "1-hit run" 1 runs.(1);
    check_int "nothing else" 2 (Array.fold_left ( + ) 0 runs)

  let test_hint_multi_domain () =
    (* each domain inserts a disjoint block through its own session; the
       summed counters account for every hinted insert exactly once *)
    let t = I.make ~capacity:8 () in
    let domains = 4 and per_domain = 5_000 in
    let worker d () =
      let h = I.session t in
      for i = d * per_domain to ((d + 1) * per_domain) - 1 do
        ignore (I.s_insert h (k i) : bool)
      done;
      I.hint_counters (I.s_hints h)
    in
    let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
    let counters = worker 0 () :: List.map Domain.join spawned in
    check_int "every hinted insert is a hit or a miss" (domains * per_domain)
      (List.fold_left (fun acc (h, m) -> acc + h + m) 0 counters);
    check_int "tree holds the union" (domains * per_domain) (I.cardinal t);
    I.check_invariants t

  let test_hint_run_hist () =
    let t = I.make () in
    let h = I.session t in
    for i = 0 to 9_999 do
      ignore (I.s_insert h (k i) : bool)
    done;
    let runs = I.hint_run_hist (I.s_hints h) in
    check_int "log2 run buckets" 16 (Array.length runs);
    let _, misses = I.hint_counters (I.s_hints h) in
    let recorded = Array.fold_left ( + ) 0 runs in
    (* every miss closes a run; the still-open run adds at most one entry *)
    check_bool "one run recorded per miss (+ open run)" true
      (recorded = misses || recorded = misses + 1);
    (* a sorted insert stream produces long hit runs: some bucket >= 2^3 *)
    check_bool "long runs observed on sorted stream" true
      (Array.exists (fun c -> c > 0) (Array.sub runs 4 (Array.length runs - 4)))

  (* ---------------- allocation ---------------- *)

  (* A keyed read allocates at most its answer: the [Some] of a bound is
     two words; the descent, the position and a scan allocate nothing, at
     any tree size. *)
  let read_word_budget = 4.0

  (* Minor words per [op] over [probes], after one warm-up pass. *)
  let words_per_call probes op =
    Array.iter op probes;
    let before = Gc.minor_words () in
    Array.iter op probes;
    (Gc.minor_words () -. before) /. float_of_int (Array.length probes)

  let read_words n =
    let t = I.make () in
    ignore (I.insert_batch t (Array.init n (fun i -> k (2 * i))) : int);
    let s = I.session t in
    let r = rng n in
    let probes = Array.init 1000 (fun _ -> k (r (2 * n))) in
    let seen = ref 0 in
    let ten _ =
      incr seen;
      !seen < 10
    in
    List.map
      (fun (name, op) -> (name, words_per_call probes op))
      [
        ("mem", fun x -> ignore (I.mem t x : bool));
        ("s_mem", fun x -> ignore (I.s_mem s x : bool));
        ("lower_bound", fun x -> ignore (I.lower_bound t x : I.key option));
        ("upper_bound", fun x -> ignore (I.upper_bound t x : I.key option));
        ("s_lower_bound", fun x -> ignore (I.s_lower_bound s x : I.key option));
        ("s_upper_bound", fun x -> ignore (I.s_upper_bound s x : I.key option));
        ( "iter_from",
          fun x ->
            seen := 0;
            I.iter_from ten t x );
        ( "s_iter_from",
          fun x ->
            seen := 0;
            I.s_iter_from ten s x );
      ]

  let test_read_allocation () =
    let small = read_words 1_000 and large = read_words 100_000 in
    List.iter2
      (fun (name, w_small) (_, w_large) ->
        if w_small > read_word_budget || w_large > read_word_budget then
          Alcotest.failf "%s allocates %.1f words/call at 1k keys, %.1f at 100k \
                          (budget %.0f)"
            name w_small w_large read_word_budget;
        if Float.abs (w_small -. w_large) >= 0.5 then
          Alcotest.failf "%s allocates %.1f words/call at 1k keys but %.1f at 100k"
            name w_small w_large)
      small large

  (* ---------------- shape ---------------- *)

  let test_shape_empty () =
    let sh = I.shape (I.make ()) in
    check_int "empty height" 0 sh.Tree_shape.height;
    check_int "empty nodes" 0 sh.Tree_shape.nodes;
    check_int "empty elements" 0 sh.Tree_shape.elements

  let test_shape_matches_stats () =
    let t = of_list ~capacity:4 (List.init 1000 Fun.id) in
    I.check_invariants t;
    let st = I.stats t and sh = I.shape t in
    check_int "elements agree" st.I.elements sh.Tree_shape.elements;
    check_int "nodes agree" st.I.nodes sh.Tree_shape.nodes;
    check_int "leaves agree" st.I.leaves sh.Tree_shape.leaves;
    check_int "height agrees" st.I.height sh.Tree_shape.height;
    check_bool "fill agrees" true
      (Float.abs (st.I.fill -. sh.Tree_shape.fill) < 1e-9);
    check_int "capacity recorded" 4 sh.Tree_shape.capacity;
    check_int "one level array entry per level" sh.Tree_shape.height
      (Array.length sh.Tree_shape.level_nodes);
    check_int "single root" 1 sh.Tree_shape.level_nodes.(0);
    check_int "levels sum to nodes" sh.Tree_shape.nodes
      (Array.fold_left ( + ) 0 sh.Tree_shape.level_nodes);
    check_int "per-level keys sum to elements" sh.Tree_shape.elements
      (Array.fold_left ( + ) 0 sh.Tree_shape.level_keys);
    (* every leaf sits at the bottom level (uniform depth invariant) *)
    check_int "bottom level holds the leaves" sh.Tree_shape.leaves
      sh.Tree_shape.level_nodes.(sh.Tree_shape.height - 1);
    check_int "fill deciles sum to nodes" sh.Tree_shape.nodes
      (Array.fold_left ( + ) 0 sh.Tree_shape.fill_deciles)

  (* ---------------- bulk ---------------- *)

  let test_insert_all_merge () =
    let a = of_list ~capacity:5 (List.init 500 (fun i -> i * 2)) in
    let b = of_list ~capacity:5 (List.init 500 (fun i -> (i * 2) + 1)) in
    I.insert_all a b;
    check_int "merged cardinal" 1000 (I.cardinal a);
    check_ilist "merged prefix" [ 0; 1; 2; 3; 4 ]
      (List.filteri (fun i _ -> i < 5) (to_ints a));
    I.check_invariants a;
    I.insert_all a b;
    check_int "idempotent merge" 1000 (I.cardinal a)

  let test_insert_all_default () =
    let a = of_list (List.init 100 (fun i -> 2 * i)) in
    I.insert_all a (of_list (List.init 100 (fun i -> (2 * i) + 1)));
    check_int "merged" 200 (I.cardinal a);
    I.check_invariants a

  let test_binary_search_variant () =
    let r = rng 5 in
    let lin = I.make ~capacity:32 ~binary_search:false () in
    let bin = I.make ~capacity:32 ~binary_search:true () in
    for _ = 1 to 20_000 do
      let x = r 50_000 in
      check_bool "variants agree on insert" (I.insert lin (k x)) (I.insert bin (k x))
    done;
    check_ilist "variants agree on contents" (to_ints lin) (to_ints bin);
    I.check_invariants bin

  let test_batch_rejects_unsorted () =
    let t = I.make () in
    Alcotest.check_raises "decreasing run"
      (Invalid_argument "Btree.insert_batch: run not sorted") (fun () ->
        ignore (I.insert_batch t [| k 3; k 1 |] : int));
    Alcotest.check_raises "bad range"
      (Invalid_argument "Btree.insert_batch: invalid range") (fun () ->
        ignore (I.insert_batch ~pos:1 ~len:3 t [| k 1; k 2; k 3 |] : int))

  let test_session_batch () =
    let t = I.make ~capacity:4 () in
    let s = I.session t in
    let run = Array.init 100 k in
    check_int "fresh" 100 (I.s_insert_batch s run);
    check_int "replay" 0 (I.s_insert_batch s run);
    check_bool "mem" true (I.s_mem s (k 42));
    I.check_invariants t

  let bulk_cases of_sorted =
    let test_of_sorted_array () =
      List.iter
        (fun n ->
          let t = of_sorted ~capacity:6 (Array.init n (fun i -> k (i * 3))) in
          check_int (Printf.sprintf "bulk cardinal %d" n) n (I.cardinal t);
          I.check_invariants t;
          if n > 0 then begin
            Alcotest.check int_opt "bulk min" (Some 0) (opt (I.min_elt t));
            Alcotest.check int_opt "bulk max" (Some ((n - 1) * 3)) (opt (I.max_elt t))
          end;
          (* the bulk tree must accept further inserts *)
          ins t 1;
          I.check_invariants t)
        [ 0; 1; 2; 5; 6; 7; 13; 50; 100; 1000; 4096 ]
    in
    let test_rejects_unsorted () =
      Alcotest.check_raises "unsorted rejected"
        (Invalid_argument "Btree.of_sorted_array: input not strictly increasing")
        (fun () -> ignore (of_sorted ~capacity:4 [| k 1; k 1 |] : I.t))
    in
    let test_roundtrip () =
      let r = rng 3 in
      let t = I.make () in
      for _ = 1 to 5000 do
        ins t (r 10_000)
      done;
      let t2 = of_sorted ~capacity:I.default_capacity (I.to_sorted_array t) in
      check_ilist "roundtrip" (to_ints t) (to_ints t2)
    in
    let prop_bulk_build =
      QCheck.Test.make ~count:200 ~name:"of_sorted_array invariants + contents"
        QCheck.(list_of_size Gen.(0 -- 2000) (int_bound 1_000_000))
        (fun keys ->
          let t = of_sorted ~capacity:7 (sorted_run keys) in
          I.check_invariants t;
          to_ints t = ISet.elements (ISet.of_list keys))
    in
    ( [
        Alcotest.test_case "of_sorted_array" `Quick test_of_sorted_array;
        Alcotest.test_case "rejects unsorted" `Quick test_rejects_unsorted;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      ],
      [ prop_bulk_build ] )

  (* ---------------- iterators & set predicates ---------------- *)

  let walk it =
    let seen = ref [] in
    while not (I.Iterator.at_end it) do
      seen := I.int_of (I.Iterator.get it) :: !seen;
      I.Iterator.advance it
    done;
    List.rev !seen

  let test_iterator_full_walk () =
    let t = of_list ~capacity:4 (List.init 500 (fun i -> i * 3)) in
    check_ilist "iterator = to_list" (to_ints t) (walk (I.Iterator.start t))

  let test_iterator_empty () =
    let it = I.Iterator.start (I.make ()) in
    check_bool "empty at end" true (I.Iterator.at_end it);
    Alcotest.check_raises "get at end"
      (Invalid_argument "Btree.Iterator.get: at end") (fun () ->
        ignore (I.Iterator.get it : I.key))

  let test_iterator_seek () =
    let t = of_list ~capacity:4 (List.init 100 (fun i -> i * 2)) in
    let get it = I.int_of (I.Iterator.get it) in
    check_int "seek lands on lower bound" 32 (get (I.Iterator.seek t (k 31)));
    check_int "seek exact" 32 (get (I.Iterator.seek t (k 32)));
    check_bool "seek past max" true (I.Iterator.at_end (I.Iterator.seek t (k 199)));
    let it = I.Iterator.seek t (k 10) in
    let out = ref [] in
    for _ = 1 to 5 do
      out := get it :: !out;
      I.Iterator.advance it
    done;
    check_ilist "range walk" [ 10; 12; 14; 16; 18 ] (List.rev !out)

  let test_iterator_copy () =
    let t = of_list (List.init 21 Fun.id) in
    let a = I.Iterator.seek t (k 5) in
    let b = I.Iterator.copy a in
    I.Iterator.advance a;
    check_int "copy unaffected" 5 (I.int_of (I.Iterator.get b));
    check_int "original advanced" 6 (I.int_of (I.Iterator.get a))

  let test_set_predicates () =
    let mk l = of_list ~capacity:4 l in
    let a = mk [ 1; 2; 3 ] and b = mk [ 3; 2; 1 ] in
    let c = mk [ 1; 2; 3; 4 ] and d = mk [ 5; 6 ] in
    check_bool "equal" true (I.equal a b);
    check_bool "not equal" false (I.equal a c);
    check_bool "subset" true (I.subset a c);
    check_bool "not subset" false (I.subset c a);
    check_bool "subset with gap" false (I.subset (mk [ 1; 5 ]) c);
    check_bool "disjoint" true (I.disjoint a d);
    check_bool "not disjoint" false (I.disjoint a c);
    check_bool "empty subset" true (I.subset (mk []) a);
    check_bool "empty equal" true (I.equal (mk []) (mk []))

  (* ---------------- batch ---------------- *)

  let test_batch_basic () =
    let t = I.make ~capacity:4 () in
    let run = Array.init 1000 (fun i -> k (i * 2)) in
    check_int "all fresh" 1000 (I.insert_batch t run);
    I.check_invariants t;
    check_int "cardinal" 1000 (I.cardinal t);
    check_int "replay inserts nothing" 0 (I.insert_batch t run);
    I.check_invariants t;
    check_int "cardinal unchanged" 1000 (I.cardinal t)

  let test_batch_duplicates_in_run () =
    let t = I.make ~capacity:4 () in
    check_int "fresh" 3 (I.insert_batch t (Array.map k [| 1; 1; 2; 2; 2; 9 |]));
    I.check_invariants t;
    check_ilist "contents" [ 1; 2; 9 ] (to_ints t)

  (* The merge must also amortise: [Btree_batch_keys / Btree_batch_leaves]
     is the keys consumed per leaf write-lock, which the per-key path holds
     at 1 by definition.  The run is deterministic and the merge runs on
     one domain, so the ratio is exact; the floor is the value this case
     measures, rounded down. *)
  let batch_keys_per_leaf_floor = 2.5 (* measured: 1500 keys / 599 leaves *)

  let test_batch_into_populated () =
    let r = rng 11 in
    let t = I.make ~capacity:5 () in
    let single = I.make ~capacity:5 () in
    let model = ref ISet.empty in
    for _ = 1 to 2_000 do
      let x = r 4000 in
      ins t x;
      ins single x;
      model := ISet.add x !model
    done;
    let run = Array.init 1500 (fun i -> (i * 3) + 1) in
    let expected_fresh =
      Array.fold_left (fun n x -> if ISet.mem x !model then n else n + 1) 0 run
    in
    Telemetry.reset ();
    Telemetry.enable ();
    let fresh =
      Fun.protect ~finally:Telemetry.disable (fun () ->
          I.insert_batch t (Array.map k run))
    in
    let snap = Telemetry.snapshot () in
    check_int "fresh count" expected_fresh fresh;
    I.check_invariants t;
    Array.iter (fun x -> model := ISet.add x !model) run;
    check_ilist "contents match model" (ISet.elements !model) (to_ints t);
    Array.iter (ins single) run;
    check_ilist "same set as per-key inserts" (to_ints single) (to_ints t);
    let keys = Telemetry.get snap Telemetry.Counter.Btree_batch_keys in
    let leaves = Telemetry.get snap Telemetry.Counter.Btree_batch_leaves in
    check_int "every run key offered" (Array.length run) keys;
    let per_leaf = float_of_int keys /. float_of_int (max 1 leaves) in
    if per_leaf < batch_keys_per_leaf_floor then
      Alcotest.failf
        "batch merge filled %d keys in %d leaf visits (%.3f, floor %.1f)" keys
        leaves per_leaf batch_keys_per_leaf_floor

  let test_separators () =
    let t = of_list (List.init 10_000 Fun.id) in
    let cmp = I.compare t in
    List.iter
      (fun limit ->
        let seps = I.separators t ~limit in
        if Array.length seps > limit then
          Alcotest.failf "limit %d exceeded: %d" limit (Array.length seps);
        Array.iteri
          (fun i s ->
            if i > 0 && cmp seps.(i - 1) s >= 0 then
              Alcotest.fail "separators not strictly increasing";
            if not (I.mem t s) then Alcotest.fail "separator not a tree key")
          seps;
        (* partition bounds cut a run at those separators *)
        let run = Array.init 20_000 (fun i -> k (i - 5000)) in
        let b = I.partition t ~parts:(limit + 1) run in
        check_int "partition ends" (Array.length run) b.(Array.length b - 1);
        check_int "partition slices" (Array.length seps + 1) (Array.length b - 1);
        Array.iteri
          (fun i s ->
            if cmp run.(b.(i + 1)) s < 0 || cmp run.(b.(i + 1) - 1) s >= 0 then
              Alcotest.failf "bound %d not at separator" (i + 1))
          seps)
      [ 1; 3; 7; 15; 64 ];
    check_int "empty tree has no separators" 0
      (Array.length (I.separators (I.make ()) ~limit:7))

  let test_session_ops () =
    let a = I.make () and b = I.make () in
    let s = I.session b in
    let run = Array.init 500 (fun i -> k (i * 2)) in
    Array.iter (fun x -> ignore (I.insert a x : bool)) run;
    check_int "session batch fresh" 500 (I.s_insert_batch s run);
    check_bool "session insert" true (I.s_insert s (k 1001));
    ins a 1001;
    check_bool "session mem" true (I.s_mem s (k 500));
    I.check_invariants b;
    check_bool "same contents" true (I.equal a b)

  (* ---------------- properties ---------------- *)

  let keys_gen bound = QCheck.(list (int_bound bound))

  (* Bounds and scans, unhinted and through one session reused across the
     probes, against the model.  At capacity 3 probes often start at inner
     separators; the scans take up to [scan_len] keys, enough to run off a
     leaf at capacity 24. *)
  let scan_len = 30

  let reads_vs_model capacity =
    QCheck.Test.make ~count:200
      ~name:(Printf.sprintf "bounds and scans = model, capacity %d" capacity)
      QCheck.(pair (keys_gen 300) (small_list (int_bound 320)))
      (fun (ins, probes) ->
        let t = of_list ~capacity ins in
        let s = I.session t in
        let model = ISet.of_list ins in
        let take iter_from p =
          let seen = ref [] and n = ref 0 in
          iter_from
            (fun x ->
              seen := I.int_of x :: !seen;
              incr n;
              !n < scan_len)
            (k p);
          List.rev !seen
        in
        List.for_all
          (fun p ->
            let lb = ISet.find_first_opt (fun x -> x >= p) model
            and ub = ISet.find_first_opt (fun x -> x > p) model
            and from =
              List.filteri
                (fun i _ -> i < scan_len)
                (ISet.elements (ISet.filter (fun x -> x >= p) model))
            in
            opt (I.lower_bound t (k p)) = lb
            && opt (I.upper_bound t (k p)) = ub
            && opt (I.s_lower_bound s (k p)) = lb
            && opt (I.s_upper_bound s (k p)) = ub
            && I.s_mem s (k p) = ISet.mem p model
            && take (fun f x -> I.iter_from f t x) p = from
            && take (fun f x -> I.s_iter_from f s x) p = from)
          probes)

  let props =
    let open QCheck in
    [
      Test.make ~count:200 ~name:"iterator walk = to_list" (keys_gen 400)
        (fun keys ->
          let t = of_list ~capacity:4 keys in
          walk (I.Iterator.start t) = to_ints t);
      Test.make ~count:200 ~name:"seek = lower_bound"
        (pair (keys_gen 300) (small_list (int_bound 320)))
        (fun (keys, probes) ->
          let t = of_list ~capacity:5 keys in
          List.for_all
            (fun p ->
              let it = I.Iterator.seek t (k p) in
              let via_it =
                if I.Iterator.at_end it then None else Some (I.int_of (I.Iterator.get it))
              in
              via_it = opt (I.lower_bound t (k p)))
            probes);
      Test.make ~count:200 ~name:"tree = model set" (keys_gen 500) (fun keys ->
          let t = of_list ~capacity:4 keys in
          I.check_invariants t;
          to_ints t = ISet.elements (ISet.of_list keys));
      Test.make ~count:200 ~name:"mem sound and complete"
        (pair (keys_gen 200) (keys_gen 200))
        (fun (ins, probes) ->
          let t = of_list ~capacity:4 ins in
          let model = ISet.of_list ins in
          List.for_all (fun p -> I.mem t (k p) = ISet.mem p model) (ins @ probes));
      reads_vs_model 3;
      reads_vs_model 24;
      Test.make ~count:100 ~name:"session = unhinted semantics" (keys_gen 100)
        (fun keys ->
          let a = I.make ~capacity:4 () and b = I.make ~capacity:4 () in
          let h = I.session b in
          let ra = List.map (fun x -> I.insert a (k x)) keys in
          let rb = List.map (fun x -> I.s_insert h (k x)) keys in
          ra = rb && I.equal a b);
      Test.make ~count:200 ~name:"batch = one-by-one" (keys_gen 2000) (fun keys ->
          let run = sorted_run keys in
          let a = I.make ~capacity:4 () in
          Array.iter (fun x -> ignore (I.insert a x : bool)) run;
          let b = I.make ~capacity:4 () in
          let fresh = I.insert_batch b run in
          I.check_invariants b;
          fresh = Array.length run && I.equal a b);
      Test.make ~count:200 ~name:"windowed batches = whole batch"
        (pair (keys_gen 1500) (int_range 1 64))
        (fun (keys, width) ->
          let run = sorted_run keys in
          let a = I.make ~capacity:4 () in
          ignore (I.insert_batch a run : int);
          let b = I.make ~capacity:4 () in
          let h = I.session b in
          let n = Array.length run in
          let pos = ref 0 in
          while !pos < n do
            let len = min width (n - !pos) in
            ignore (I.s_insert_batch ~pos:!pos ~len h run : int);
            I.check_invariants b;
            pos := !pos + len
          done;
          I.equal a b);
      Test.make ~count:100 ~name:"session batch/insert = plain"
        (pair (keys_gen 500) (keys_gen 500))
        (fun (batched, singles) ->
          let run = sorted_run batched in
          let a = I.make ~capacity:4 () in
          ignore (I.insert_batch a run : int);
          List.iter (ins a) singles;
          let b = I.make ~capacity:4 () in
          let s = I.session b in
          ignore (I.s_insert_batch s run : int);
          List.iter (fun x -> ignore (I.s_insert s (k x) : bool)) singles;
          I.check_invariants b;
          I.equal a b);
    ]

  (* ---------------- concurrency ---------------- *)

  let spawn_all d worker =
    List.iter Domain.join (List.init d (fun w -> Domain.spawn (worker w)))

  let test_concurrent_disjoint () =
    let t = I.make ~capacity:8 () in
    let d = domains_for_stress () and per = 20_000 in
    spawn_all d (fun w () ->
        let h = I.session t in
        for i = 0 to per - 1 do
          ignore (I.s_insert h (k ((w * per) + i)) : bool)
        done);
    check_int "all inserted" (d * per) (I.cardinal t);
    I.check_invariants t;
    for i = 0 to (d * per) - 1 do
      if not (I.mem t (k i)) then Alcotest.failf "lost %d" i
    done

  (* every domain inserts the same keys: exactly one insert per key must
     report "fresh" *)
  let test_concurrent_overlapping () =
    let t = I.make ~capacity:8 () in
    let d = domains_for_stress () and n = 20_000 in
    let fresh = Atomic.make 0 in
    spawn_all d (fun _ () ->
        let h = I.session t in
        let mine = ref 0 in
        for i = 0 to n - 1 do
          if I.s_insert h (k i) then incr mine
        done;
        ignore (Atomic.fetch_and_add fresh !mine));
    check_int "cardinal = n" n (I.cardinal t);
    check_int "each key fresh exactly once" n (Atomic.get fresh);
    I.check_invariants t

  let test_concurrent_random () =
    let t = I.make ~capacity:8 () in
    let d = domains_for_stress () and per = 30_000 in
    let expected =
      Array.init d (fun w ->
          let r = rng (w + 1) in
          Array.init per (fun _ -> r 1_000_000))
    in
    spawn_all d (fun w () ->
        let h = I.session t in
        Array.iter (fun x -> ignore (I.s_insert h (k x) : bool)) expected.(w));
    I.check_invariants t;
    let model =
      Array.fold_left (Array.fold_left (fun s x -> ISet.add x s)) ISet.empty expected
    in
    check_int "union cardinal" (ISet.cardinal model) (I.cardinal t);
    check_bool "contents = union" true (to_ints t = ISet.elements model)

  (* tiny capacity + many domains: maximal split contention *)
  let test_concurrent_split_storm () =
    let t = I.make ~capacity:3 () in
    let d = domains_for_stress () and per = 5_000 in
    spawn_all d (fun w () ->
        let r = rng (1000 + w) in
        for _ = 0 to per - 1 do
          ins t (r 50_000)
        done);
    I.check_invariants t

  let test_concurrent_via_pool () =
    let n = 100_000 in
    let keys = Array.init n Key.mix64 in
    Pool.with_pool (domains_for_stress ()) (fun p ->
        let t = I.make () in
        Pool.parallel_for_ranges p 0 n (fun _w lo hi ->
            let h = I.session t in
            for i = lo to hi - 1 do
              ignore (I.s_insert h (k keys.(i)) : bool)
            done);
        I.check_invariants t;
        let model = Array.fold_left (fun s x -> ISet.add x s) ISet.empty keys in
        check_int "pool insert cardinal" (ISet.cardinal model) (I.cardinal t))

  (* half disjoint, half overlapping across workers *)
  let test_concurrent_mixed () =
    let t = I.make () in
    let d = domains_for_stress () and per = 20_000 in
    let fresh = Atomic.make 0 in
    spawn_all d (fun w () ->
        let h = I.session t in
        let mine = ref 0 in
        for i = 0 to per - 1 do
          let x = if i land 1 = 0 then ((w + 1) * per) + i else i in
          if I.s_insert h (k x) then incr mine
        done;
        ignore (Atomic.fetch_and_add fresh !mine));
    I.check_invariants t;
    let expected = (d * per / 2) + (per / 2) in
    check_int "cardinal" expected (I.cardinal t);
    check_int "fresh total" expected (Atomic.get fresh)

  (* the parallel structural merge's access pattern: every domain
     batch-inserts one contiguous partition of a shared sorted run *)
  let test_concurrent_batch_partitions () =
    let t = I.make ~capacity:8 () in
    let n = 80_000 in
    for i = 0 to (n / 16) - 1 do
      ins t (i * 16)
    done;
    let seeded = I.cardinal t in
    let d = domains_for_stress () in
    let run = Array.init n k in
    let fresh = Atomic.make 0 in
    spawn_all d (fun w () ->
        let h = I.session t in
        let lo = w * n / d and hi = (w + 1) * n / d in
        let f = I.s_insert_batch ~pos:lo ~len:(hi - lo) h run in
        ignore (Atomic.fetch_and_add fresh f : int));
    I.check_invariants t;
    check_int "cardinal" n (I.cardinal t);
    check_int "fresh total" (n - seeded) (Atomic.get fresh)

  (* batches racing per-key inserts over overlapping keys: freshness must
     stay exact *)
  let test_concurrent_batch_vs_single () =
    let t = I.make ~capacity:8 () in
    let n = 40_000 in
    let run = Array.init n k in
    let fresh = Atomic.make 0 in
    spawn_all (domains_for_stress ()) (fun w () ->
        let h = I.session t in
        let f =
          if w land 1 = 0 then I.s_insert_batch h run
          else begin
            let mine = ref 0 in
            for i = 0 to n - 1 do
              if I.s_insert h (k i) then incr mine
            done;
            !mine
          end
        in
        ignore (Atomic.fetch_and_add fresh f : int));
    I.check_invariants t;
    check_int "cardinal" n (I.cardinal t);
    check_int "fresh total" n (Atomic.get fresh)

  (* Regression test for the inner-split publication race: separator-
     partitioned batch merges onto a populated tree, many small rounds,
     each checked against a model.  Two workers hold leaves of neighbouring
     partitions while splits propagate into the ancestors they share; a
     new inner sibling that could be latched before it was linked let both
     writers link into it, corrupting the tree (about one round in a
     hundred at capacity 24 on a two-thread host; rarer at capacity 4). *)
  let test_partitioned_merge_vs_model () =
    let r = rng 2024 in
    Pool.with_pool 2 (fun pool ->
        List.iter
          (fun (capacity, seeded, rounds) ->
            for round = 1 to rounds do
              let t = I.make ~capacity () in
              let model = ref ISet.empty in
              for _ = 1 to seeded do
                let x = r 4000 in
                ins t x;
                model := ISet.add x !model
              done;
              let fresh_keys = List.init 1000 (fun _ -> r 4000) in
              let run = sorted_run fresh_keys in
              let bounds = I.partition t ~parts:8 run in
              let nparts = Array.length bounds - 1 in
              Pool.run pool (fun w ->
                  let s = I.session t in
                  let p = ref w in
                  while !p < nparts do
                    let lo = bounds.(!p) and hi = bounds.(!p + 1) in
                    ignore (I.s_insert_batch ~pos:lo ~len:(hi - lo) s run : int);
                    p := !p + 2
                  done);
              List.iter (fun x -> model := ISet.add x !model) fresh_keys;
              (try I.check_invariants t
               with Failure m ->
                 Alcotest.failf "capacity %d round %d: %s" capacity round m);
              if to_ints t <> ISet.elements !model then
                Alcotest.failf "capacity %d round %d: contents differ from model"
                  capacity round
            done)
          [ (4, 40, 1500); (24, 200, 1500) ])

  (* ---------------- the suite ---------------- *)

  let tc = Alcotest.test_case

  let suite =
    let bulk, bulk_props =
      match I.of_sorted with Some f -> bulk_cases f | None -> ([], [])
    in
    let only_concurrent l = if I.concurrent then l else [] in
    [
      ( "basics",
        [
          tc "empty" `Quick test_empty;
          tc "singleton" `Quick test_singleton;
          tc "ordered bulk" `Quick test_ordered_bulk;
          tc "ordered" `Quick test_ordered_hinted;
          tc "random vs model" `Quick test_random_vs_model;
          tc "reverse order" `Quick test_reverse_order;
          tc "capacity 3" `Quick test_capacity_three;
          tc "stats" `Quick test_stats;
          tc "bounds" `Quick test_bounds_small;
          tc "iter_from" `Quick test_iter_from_between;
          tc "hints" `Quick test_hinted_ops;
          tc "hint run histogram" `Quick test_batch_run_hist;
          tc "shape" `Quick test_shape_binary;
        ] );
      ( "queries",
        [
          tc "bounds vs model" `Quick test_bounds_vs_model;
          tc "iter_from" `Quick test_iter_from;
          tc "iter_while" `Quick test_iter_while;
        ] );
      ( "hints",
        [
          tc "ordered" `Quick test_hints_ordered;
          tc "ordered hits" `Quick test_hints_ordered_hits;
          tc "ordered reads miss once per leaf" `Quick
            test_hints_ordered_reads_miss_once_per_leaf;
          tc "random" `Quick
            (hinted_random_vs_model ~seed:99 ~capacity:8 ~range:100_000
               ~n:10_000 ~probes:2000);
          tc "random vs model" `Quick
            (hinted_random_vs_model ~seed:2 ~capacity:6 ~range:50_000 ~n:10_000
               ~probes:2000);
          tc "one count per op" `Quick test_hint_one_count_per_op;
          tc "run reset" `Quick test_hint_run_reset;
          tc "run-length histogram" `Quick test_hint_run_hist;
        ]
        @ only_concurrent [ tc "multi-domain counters" `Quick test_hint_multi_domain ]
      );
      ("allocation", [ tc "keyed reads within budget" `Quick test_read_allocation ]);
      ( "shape",
        [
          tc "empty" `Quick test_shape_empty;
          tc "matches stats" `Quick test_shape_matches_stats;
        ] );
      ( "bulk",
        [
          tc "insert_all merge" `Quick test_insert_all_merge;
          tc "insert_all" `Quick test_insert_all_default;
          tc "binary search variant" `Quick test_binary_search_variant;
          tc "batch rejects unsorted" `Quick test_batch_rejects_unsorted;
          tc "session batch" `Quick test_session_batch;
        ]
        @ bulk );
      ( "iterators",
        [
          tc "full walk" `Quick test_iterator_full_walk;
          tc "empty" `Quick test_iterator_empty;
          tc "seek" `Quick test_iterator_seek;
          tc "copy" `Quick test_iterator_copy;
          tc "set predicates" `Quick test_set_predicates;
        ] );
      ( "batch",
        [
          tc "basic" `Quick test_batch_basic;
          tc "duplicates in run" `Quick test_batch_duplicates_in_run;
          tc "rejects unsorted" `Quick test_batch_rejects_unsorted;
          tc "into populated" `Quick test_batch_into_populated;
          tc "separators" `Quick test_separators;
          tc "session" `Quick test_session_ops;
        ] );
      ("properties", qcheck (props @ bulk_props));
    ]
    @ only_concurrent
        [
          ( "concurrency",
            [
              tc "disjoint ranges" `Quick test_concurrent_disjoint;
              tc "overlapping" `Quick test_concurrent_overlapping;
              tc "random union" `Quick test_concurrent_random;
              tc "split storm" `Quick test_concurrent_split_storm;
              tc "via pool" `Quick test_concurrent_via_pool;
              tc "mixed inserts" `Quick test_concurrent_mixed;
              tc "batch partitions" `Quick test_concurrent_batch_partitions;
              tc "batch vs single" `Quick test_concurrent_batch_vs_single;
              tc "partitioned merge vs model" `Quick test_partitioned_merge_vs_model;
            ] );
        ]

  (* Append instance-specific cases to the shared groups (a group name may
     appear once per Alcotest run). *)
  let run name extra =
    let merged =
      List.map
        (fun (g, cases) ->
          (g, cases @ List.concat_map (fun (g', c) -> if g = g' then c else []) extra))
        suite
    in
    let fresh = List.filter (fun (g, _) -> not (List.mem_assoc g suite)) extra in
    Alcotest.run name (merged @ fresh)
end
