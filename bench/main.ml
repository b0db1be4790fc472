(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (section 4).

     dune exec bench/main.exe               # all experiments, scaled-down sizes
     dune exec bench/main.exe -- fig4a fig5b --threads 8
     dune exec bench/main.exe -- all --scale 4
     dune exec bench/main.exe -- bechamel   # micro-benchmarks (one group per family)

   Sizes default well below the paper's (100M-insert runs need the authors'
   256GB 4-socket machine); --scale multiplies element counts.  Shapes — who
   wins, roughly by how much, where trends bend — are the reproduction
   target; see EXPERIMENTS.md for paper-vs-measured notes. *)

let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Contestant instantiations                                          *)
(* ------------------------------------------------------------------ *)

(* 2D points (Fig. 3 / Fig. 4) *)
module CB = Btree.Make (Key.Pair) (* the paper's concurrent B-tree *)
module SB = Btree_seq.Make (Key.Pair) (* its sequential variant *)
module RB = Rbtree.Make (Key.Pair) (* "STL rbtset" *)
module HS = Hashset.Make (Key.Pair) (* "STL hashset" *)
module GB = Bplus_tree.Make (Key.Pair) (* "google btree" *)
module CH = Concurrent_hashset.Make (Key.Pair) (* "TBB hashset" *)
module RED = Reduction_set.Make (Key.Pair) (* "reduction btree" *)

(* 32-bit-style integer keys (Table 3) *)
module IB = Btree.Make (Key.Int)
module PT = Palm_tree.Make (Key.Int)
module MT = Masstree.Make (Key.Int)
module BS = Bslack_tree.Make (Key.Int)

type config = {
  scale : float;
  max_threads : int;
  full : bool;
  json : string; (* metrics output of the smoke experiment *)
}

let scaled cfg n = max 1 (int_of_float (float_of_int n *. cfg.scale))

let sides cfg =
  if cfg.full then [ 1000; 2000; 5000; 10000 ]
  else
    List.map
      (fun s -> max 10 (int_of_float (float_of_int s *. sqrt cfg.scale)))
      [ 200; 350; 500 ]

let header_for sides =
  "structure" :: List.map (fun s -> Printf.sprintf "%d^2" s) sides

(* ------------------------------------------------------------------ *)
(* Fig. 3 — sequential performance                                    *)
(* ------------------------------------------------------------------ *)

(* A loaded container exposes the two read phases Fig. 3 measures. *)
type loaded = {
  l_mem : (int * int) -> bool; (* hinted membership where applicable *)
  l_scan : unit -> int; (* full iteration, returns elements visited *)
}

type structure = {
  s_name : string;
  s_insert : (int * int) array -> loaded; (* the timed insert phase *)
}

let structures () : structure list =
  [
    {
      s_name = "google btree";
      s_insert =
        (fun pts ->
          let t = GB.create () in
          Array.iter (fun p -> ignore (GB.insert t p : bool)) pts;
          {
            l_mem = (fun p -> GB.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                GB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "seq btree";
      s_insert =
        (fun pts ->
          let t = SB.create () in
          let s = SB.session t in
          Array.iter (fun p -> ignore (SB.s_insert s p : bool)) pts;
          let qs = SB.session t in
          {
            l_mem = (fun p -> SB.s_mem qs p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                SB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "seq btree (n/h)";
      s_insert =
        (fun pts ->
          let t = SB.create () in
          Array.iter (fun p -> ignore (SB.insert t p : bool)) pts;
          {
            l_mem = (fun p -> SB.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                SB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "btree";
      s_insert =
        (fun pts ->
          let t = CB.create () in
          let s = CB.session t in
          Array.iter (fun p -> ignore (CB.s_insert s p : bool)) pts;
          let qs = CB.session t in
          {
            l_mem = (fun p -> CB.s_mem qs p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                CB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "btree (n/h)";
      s_insert =
        (fun pts ->
          let t = CB.create () in
          Array.iter (fun p -> ignore (CB.insert t p : bool)) pts;
          {
            l_mem = (fun p -> CB.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                CB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "STL rbtset";
      s_insert =
        (fun pts ->
          let t = RB.create () in
          Array.iter (fun p -> ignore (RB.insert t p : bool)) pts;
          {
            l_mem = (fun p -> RB.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                RB.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "STL hashset";
      s_insert =
        (fun pts ->
          let t = HS.create () in
          Array.iter (fun p -> ignore (HS.insert t p : bool)) pts;
          {
            l_mem = (fun p -> HS.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                HS.iter (fun _ -> incr n) t;
                !n);
          });
    };
    {
      s_name = "TBB hashset";
      s_insert =
        (fun pts ->
          let t = CH.create () in
          Array.iter (fun p -> ignore (CH.insert t p : bool)) pts;
          {
            l_mem = (fun p -> CH.mem t p);
            l_scan =
              (fun () ->
                let n = ref 0 in
                CH.iter (fun _ -> incr n) t;
                !n);
          });
    };
  ]

let fig3_insert cfg ~ordered =
  let sides = sides cfg in
  pf "\n== Fig. 3%s: sequential insertion (%s) — M insertions/s ==\n"
    (if ordered then "a" else "b")
    (if ordered then "ordered" else "random order");
  let rows =
    List.map
      (fun s ->
        s.s_name
        :: List.map
             (fun side ->
               let pts =
                 if ordered then Graphs.points_ordered side
                 else Graphs.points_random (Rng.create side) side
               in
               Gc.full_major ();
               let dt =
                 Bench_util.best_of 3 (fun () -> ignore (s.s_insert pts : loaded))
               in
               Bench_util.fmt_f (Bench_util.mops (Array.length pts) dt))
             sides)
      (structures ())
  in
  Bench_util.Table.print ~header:(header_for sides) ~rows

let fig3_membership cfg ~ordered =
  let sides = sides cfg in
  pf "\n== Fig. 3%s: membership test (%s) — M queries/s ==\n"
    (if ordered then "c" else "d")
    (if ordered then "ordered" else "random order");
  let rows =
    List.map
      (fun s ->
        s.s_name
        :: List.map
             (fun side ->
               let pts = Graphs.points_ordered side in
               let loaded = s.s_insert pts in
               let probes =
                 if ordered then pts
                 else begin
                   let p = Array.copy pts in
                   Rng.shuffle (Rng.create (side + 1)) p;
                   p
                 end
               in
               Gc.full_major ();
               let misses = ref 0 in
               let dt =
                 Bench_util.best_of 3 (fun () ->
                     misses := 0;
                     Array.iter
                       (fun p -> if not (loaded.l_mem p) then incr misses)
                       probes)
               in
               assert (!misses = 0);
               Bench_util.fmt_f (Bench_util.mops (Array.length probes) dt))
             sides)
      (structures ())
  in
  Bench_util.Table.print ~header:(header_for sides) ~rows

let fig3_scan cfg ~ordered =
  let sides = sides cfg in
  pf "\n== Fig. 3%s: full-range scan (after %s insert) — M entries/s ==\n"
    (if ordered then "e" else "f")
    (if ordered then "ordered" else "random");
  (* hints are not applicable to iteration (paper, section 4.1): only the
     hint-carrying structure variants are dropped *)
  let scanned =
    List.filter
      (fun s -> s.s_name <> "seq btree (n/h)" && s.s_name <> "btree (n/h)")
      (structures ())
  in
  let rows =
    List.map
      (fun s ->
        s.s_name
        :: List.map
             (fun side ->
               let pts =
                 if ordered then Graphs.points_ordered side
                 else Graphs.points_random (Rng.create side) side
               in
               let loaded = s.s_insert pts in
               Gc.full_major ();
               (* several passes so small sets still measure *)
               let passes = max 1 (2_000_000 / Array.length pts) in
               let visited = ref 0 in
               let dt =
                 Bench_util.best_of 3 (fun () ->
                     visited := 0;
                     for _ = 1 to passes do
                       visited := !visited + loaded.l_scan ()
                     done)
               in
               assert (!visited = passes * Array.length pts);
               Bench_util.fmt_f (Bench_util.mops !visited dt))
             sides)
      scanned
  in
  Bench_util.Table.print ~header:(header_for sides) ~rows

(* ------------------------------------------------------------------ *)
(* Fig. 4 — parallel insertion                                        *)
(* ------------------------------------------------------------------ *)

(* [contiguous = true] gives each worker a contiguous block of the input
   (the NUMA-friendly layout of Fig. 4c: with first-touch allocation and
   pinned threads, a worker's block stays socket-local); [false] interleaves
   the input round-robin — workers then contend on the same leaves. *)
let parallel_insert_driver ~contiguous pool pts insert =
  let n = Array.length pts in
  if contiguous then
    Pool.parallel_for_ranges pool 0 n (fun w lo hi ->
        let ins = insert w in
        for i = lo to hi - 1 do
          ins pts.(i)
        done)
  else begin
    let workers = Pool.size pool in
    Pool.run pool (fun w ->
        let ins = insert w in
        let i = ref w in
        while !i < n do
          ins pts.(!i);
          i := !i + workers
        done)
  end

let fig4 cfg ~ordered ~contiguous ~label =
  let n = scaled cfg 1_000_000 in
  let side = int_of_float (ceil (sqrt (float_of_int n))) in
  let pts0 =
    if ordered then Graphs.points_ordered side
    else Graphs.points_random (Rng.create 4) side
  in
  let pts = Array.sub pts0 0 (min n (Array.length pts0)) in
  let n = Array.length pts in
  let threads = Bench_util.thread_counts ~max:cfg.max_threads in
  pf "\n== Fig. 4%s: parallel insertion (%s, %s) — M insertions/s, %d points ==\n"
    label
    (if ordered then "ordered" else "random")
    (if contiguous then "per-thread contiguous blocks" else "interleaved")
    n;
  let contestants =
    [
      ( "btree",
        fun pool ->
          let t = CB.create () in
          parallel_insert_driver ~contiguous pool pts (fun _w ->
              let s = CB.session t in
              fun p -> ignore (CB.s_insert s p : bool)) );
      ( "btree (n/h)",
        fun pool ->
          let t = CB.create () in
          parallel_insert_driver ~contiguous pool pts (fun _w p ->
              ignore (CB.insert t p : bool)) );
      ( "google btree",
        fun pool ->
          (* global lock: the configuration that predictably cannot scale *)
          let t = GB.create () in
          let m = Mutex.create () in
          parallel_insert_driver ~contiguous pool pts (fun _w p ->
              Mutex.protect m (fun () -> ignore (GB.insert t p : bool))) );
      ("reduction btree", fun pool -> ignore (RED.build pool pts : RED.Tree.t));
      ( "TBB hashset",
        fun pool ->
          let t = CH.create ~initial_capacity:n () in
          parallel_insert_driver ~contiguous pool pts (fun _w p ->
              ignore (CH.insert t p : bool)) );
    ]
  in
  let rows =
    List.map
      (fun (name, run) ->
        name
        :: List.map
             (fun t ->
               Gc.full_major ();
               let dt =
                 Pool.with_pool t (fun pool ->
                     snd (Bench_util.time (fun () -> run pool)))
               in
               Bench_util.fmt_f (Bench_util.mops n dt))
             threads)
      contestants
  in
  Bench_util.Table.print
    ~header:("structure" :: List.map (fun t -> Printf.sprintf "%dT" t) threads)
    ~rows

(* ------------------------------------------------------------------ *)
(* Table 1 — summary of investigated data structures                  *)
(* ------------------------------------------------------------------ *)

let table1 _cfg =
  pf "\n== Table 1: summary of investigated data structures ==\n";
  Bench_util.Table.print
    ~header:[ "designation"; "thread safe"; "description" ]
    ~rows:
      [
        [ "STL rbtset"; "no"; "red-black tree (Rbtree)" ];
        [ "STL hashset"; "no"; "open-addressing hash set (Hashset)" ];
        [ "google btree"; "no"; "B+-tree, binary search, linked leaves (Bplus_tree)" ];
        [ "TBB hashset"; "yes"; "lock-striped concurrent hash set (Concurrent_hashset)" ];
        [ "seq btree"; "no"; "sequential variant of our B-tree (Btree_seq)" ];
        [ "seq btree (n/h)"; "no"; "our sequential B-tree without hints" ];
        [ "reduction btree"; "yes"; "thread-private B+-trees + parallel reduction (Reduction_set)" ];
        [ "btree"; "yes"; "our optimistic B-tree (Btree, Algorithms 1-2 + hints)" ];
        [ "btree (n/h)"; "yes"; "our optimistic B-tree without hints" ];
      ]

(* ------------------------------------------------------------------ *)
(* Table 2 + Fig. 5 — Datalog workloads                               *)
(* ------------------------------------------------------------------ *)

let pointsto_workload cfg =
  let c = Pointsto_gen.scaled cfg.scale in
  (Pointsto_gen.program c, Pointsto_gen.facts c (Rng.create 11), "var-points-to")

let network_workload cfg =
  let c = Network_gen.scaled cfg.scale in
  (Network_gen.program, Network_gen.facts c (Rng.create 12), "network security")

let run_engine ?(instrument = false) ~kind ~threads (prog, facts, _) =
  let engine = Engine.create ~kind ~instrument prog in
  List.iter (fun (r, t) -> Engine.add_fact engine r t) facts;
  let dt =
    Pool.with_pool threads (fun pool ->
        snd (Bench_util.time (fun () -> Engine.run engine pool)))
  in
  (engine, dt)

let table2 cfg =
  pf "\n== Table 2: Datalog benchmark properties (synthetic workloads) ==\n";
  let describe ((prog, _, name) as w) =
    let e, _ = run_engine ~instrument:true ~kind:Storage.Btree ~threads:1 w in
    let s = Option.get (Engine.stats e) in
    (name, List.length (Engine.relations e), List.length prog.Ast.rules, s)
  in
  let rows =
    List.map
      (fun w ->
        let name, rels, rules, s = describe w in
        [
          name;
          string_of_int rels;
          string_of_int rules;
          string_of_int s.Dl_stats.s_inserts;
          string_of_int s.Dl_stats.s_mem_tests;
          string_of_int s.Dl_stats.s_lower_bounds;
          string_of_int s.Dl_stats.s_upper_bounds;
          string_of_int s.Dl_stats.s_input_tuples;
          string_of_int s.Dl_stats.s_produced_tuples;
        ])
      [ pointsto_workload cfg; network_workload cfg ]
  in
  Bench_util.Table.print
    ~header:
      [
        "workload"; "relations"; "rules"; "inserts"; "membership";
        "lower_bound"; "upper_bound"; "input"; "produced";
      ]
    ~rows

let fig5 cfg ~which =
  let workload, label =
    match which with
    | `A -> (pointsto_workload cfg, "5a: var-points-to analysis (insertion heavy)")
    | `B -> (network_workload cfg, "5b: network security analysis (read heavy)")
  in
  let threads = Bench_util.thread_counts ~max:cfg.max_threads in
  pf "\n== Fig. %s — runtime [s] ==\n" label;
  let rows =
    List.map
      (fun kind ->
        Storage.kind_name kind
        :: List.map
             (fun t ->
               Gc.full_major ();
               let _, dt = run_engine ~kind ~threads:t workload in
               Printf.sprintf "%.2f" dt)
             threads)
      Storage.all_kinds
  in
  Bench_util.Table.print
    ~header:("storage" :: List.map (fun t -> Printf.sprintf "%dT" t) threads)
    ~rows;
  (* section 4.3 hint statistics *)
  List.iter
    (fun t ->
      let e, _ = run_engine ~kind:Storage.Btree ~threads:t workload in
      match Engine.hint_rate e with
      | Some r ->
        pf "hint hit rate (%d thread%s): %.0f%%\n" t
          (if t = 1 then "" else "s")
          (100.0 *. r)
      | None -> ())
    (List.sort_uniq compare [ 1; cfg.max_threads ])

(* ------------------------------------------------------------------ *)
(* Table 3 — comparison with concurrent tree data structures          *)
(* ------------------------------------------------------------------ *)

let table3 cfg =
  let n = scaled cfg 1_000_000 in
  pf "\n== Table 3: throughput inserting integers (ordered/random) \
      [M elements/s], %d elements ==\n"
    n;
  let ordered = Array.init n (fun i -> i) in
  let random =
    let a = Array.copy ordered in
    Rng.shuffle (Rng.create 3) a;
    a
  in
  let contestants =
    [
      ( "B-tree",
        fun pool keys ->
          let t = IB.create () in
          Pool.parallel_for_ranges pool 0 (Array.length keys) (fun _w lo hi ->
              let s = IB.session t in
              for i = lo to hi - 1 do
                ignore (IB.s_insert s keys.(i) : bool)
              done) );
      ( "PALM tree",
        fun pool keys ->
          let t = PT.create () in
          Pool.parallel_for_ranges pool 0 (Array.length keys) (fun _w lo hi ->
              for i = lo to hi - 1 do
                PT.insert t keys.(i)
              done);
          PT.flush t );
      ( "Masstree",
        fun pool keys ->
          let t = MT.create () in
          Pool.parallel_for_ranges pool 0 (Array.length keys) (fun _w lo hi ->
              for i = lo to hi - 1 do
                ignore (MT.insert t keys.(i) : bool)
              done) );
      ( "B-slack",
        fun pool keys ->
          let t = BS.create () in
          Pool.parallel_for_ranges pool 0 (Array.length keys) (fun _w lo hi ->
              for i = lo to hi - 1 do
                ignore (BS.insert t keys.(i) : bool)
              done) );
    ]
  in
  let threads = List.filter (fun t -> t <= max 8 cfg.max_threads) [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun t ->
        string_of_int t
        :: List.map
             (fun (_, run) ->
               let cell keys =
                 Gc.full_major ();
                 let dt =
                   Pool.with_pool t (fun pool ->
                       snd (Bench_util.time (fun () -> run pool keys)))
                 in
                 Bench_util.fmt_f (Bench_util.mops n dt)
               in
               cell ordered ^ "/" ^ cell random)
             contestants)
      threads
  in
  Bench_util.Table.print
    ~header:("threads" :: List.map (fun (name, _) -> name ^ " (ord/rnd)") contestants)
    ~rows

(* ------------------------------------------------------------------ *)
(* Ablations (design decisions called out in DESIGN.md)               *)
(* ------------------------------------------------------------------ *)

let random_points cfg n seed =
  let side = int_of_float (sqrt (float_of_int (scaled cfg n))) + 1 in
  let pts = Graphs.points_random (Rng.create seed) side in
  Array.sub pts 0 (min (scaled cfg n) (Array.length pts))

let ablation_width cfg =
  let pts = random_points cfg 500_000 5 in
  pf "\n== Ablation: node capacity (M ops/s over %d random 2D points) ==\n"
    (Array.length pts);
  let rows =
    List.map
      (fun cap ->
        let t = CB.create ~capacity:cap () in
        Gc.full_major ();
        let _, d_ins =
          Bench_util.time (fun () ->
              Array.iter (fun p -> ignore (CB.insert t p : bool)) pts)
        in
        let _, d_mem =
          Bench_util.time (fun () ->
              Array.iter (fun p -> ignore (CB.mem t p : bool)) pts)
        in
        let st = CB.stats t in
        [
          string_of_int cap;
          Bench_util.fmt_f (Bench_util.mops (Array.length pts) d_ins);
          Bench_util.fmt_f (Bench_util.mops (Array.length pts) d_mem);
          string_of_int st.CB.height;
          Printf.sprintf "%.2f" st.CB.fill;
        ])
      [ 4; 8; 16; 24; 32; 64; 128 ]
  in
  Bench_util.Table.print
    ~header:[ "capacity"; "insert M/s"; "mem M/s"; "height"; "fill" ]
    ~rows

let ablation_search cfg =
  let pts = random_points cfg 500_000 6 in
  pf "\n== Ablation: linear vs binary in-node search (M ops/s, %d random 2D \
      points) ==\n"
    (Array.length pts);
  let rows =
    List.concat_map
      (fun cap ->
        List.map
          (fun binary ->
            let t = CB.create ~capacity:cap ~binary_search:binary () in
            Gc.full_major ();
            let _, d_ins =
              Bench_util.time (fun () ->
                  Array.iter (fun p -> ignore (CB.insert t p : bool)) pts)
            in
            let _, d_mem =
              Bench_util.time (fun () ->
                  Array.iter (fun p -> ignore (CB.mem t p : bool)) pts)
            in
            [
              string_of_int cap;
              (if binary then "binary" else "linear");
              Bench_util.fmt_f (Bench_util.mops (Array.length pts) d_ins);
              Bench_util.fmt_f (Bench_util.mops (Array.length pts) d_mem);
            ])
          [ false; true ])
      [ 16; 32; 64 ]
  in
  Bench_util.Table.print
    ~header:[ "capacity"; "search"; "insert M/s"; "mem M/s" ]
    ~rows

let ablation_merge cfg =
  let n = scaled cfg 300_000 in
  pf "\n== Ablation: structural merge (hinted insert_all) vs plain loop, \
      2 x %d elements ==\n"
    n;
  let mk seed =
    let rng = Rng.create seed in
    let t = CB.create () in
    for _ = 1 to n do
      ignore (CB.insert t (Rng.int rng 1_000_000, Rng.int rng 1_000_000) : bool)
    done;
    t
  in
  let src = mk 21 in
  let dst1 = mk 22 and dst2 = mk 22 in
  Gc.full_major ();
  let _, d_hinted = Bench_util.time (fun () -> CB.insert_all dst1 src) in
  Gc.full_major ();
  let _, d_plain =
    Bench_util.time (fun () ->
        CB.iter (fun k -> ignore (CB.insert dst2 k : bool)) src)
  in
  Bench_util.Table.print
    ~header:[ "merge strategy"; "seconds"; "M ins/s" ]
    ~rows:
      [
        [
          "hinted (insert_all)";
          Printf.sprintf "%.3f" d_hinted;
          Bench_util.fmt_f (Bench_util.mops n d_hinted);
        ];
        [
          "plain loop";
          Printf.sprintf "%.3f" d_plain;
          Bench_util.fmt_f (Bench_util.mops n d_plain);
        ];
      ];
  assert (CB.cardinal dst1 = CB.cardinal dst2)

let ablation_locks cfg =
  pf "\n== Ablation: read-path cost of locking schemes (M read-sections/s) ==\n";
  pf "(the paper's motivation: an optimistic read is a pure load; pessimistic\n\
     \ read locks store to the shared lock word on every acquisition)\n";
  let iters = scaled cfg 2_000_000 in
  let threads = Bench_util.thread_counts ~max:cfg.max_threads in
  (* shared protected data: a pair that writers keep consistent; here we
     only measure the read path on an uncontended lock *)
  let x = ref 1 and y = ref 1 in
  let sink = ref 0 in
  let run_scheme read_section t =
    Pool.with_pool t (fun pool ->
        snd
          (Bench_util.time (fun () ->
               Pool.parallel_for_ranges pool 0 (iters * t) (fun _w lo hi ->
                   for _ = lo to hi - 1 do
                     read_section ()
                   done))))
  in
  let olock = Olock.create () in
  let optimistic () =
    let lease = Olock.start_read olock in
    let a = !x and b = !y in
    if Olock.end_read olock lease then sink := !sink + a + b
  in
  let rw = Olock.Rwlock.create () in
  let pessimistic () =
    Olock.Rwlock.read_lock rw;
    sink := !sink + !x + !y;
    Olock.Rwlock.read_unlock rw
  in
  let m = Mutex.create () in
  let mutex () = Mutex.protect m (fun () -> sink := !sink + !x + !y) in
  let rows =
    List.map
      (fun (name, f) ->
        name
        :: List.map
             (fun t ->
               Gc.full_major ();
               let dt = run_scheme f t in
               Bench_util.fmt_f (Bench_util.mops (iters * t) dt))
             threads)
      [
        ("optimistic lock (lease)", optimistic);
        ("pessimistic rw lock", pessimistic);
        ("mutex", mutex);
      ]
  in
  Bench_util.Table.print
    ~header:("scheme" :: List.map (fun t -> Printf.sprintf "%dT" t) threads)
    ~rows

let ablation_specialization cfg =
  let n = scaled cfg 500_000 in
  pf "\n== Ablation: generic vs order-specialised tuple comparator (M ops/s, %d \
      random 2-tuples) ==\n" n;
  let r = Rng.create 31 in
  let keys = Array.init n (fun _ -> [| Rng.int r 100_000; Rng.int r 100_000 |]) in
  let module G = Btree.Make (Key.Int_array) in
  let bench_generic () =
    let t = G.create ~binary_search:true () in
    Gc.full_major ();
    let _, d_ins =
      Bench_util.time (fun () ->
          Array.iter (fun k -> ignore (G.insert t k : bool)) keys)
    in
    let _, d_mem =
      Bench_util.time (fun () ->
          Array.iter (fun k -> ignore (G.mem t k : bool)) keys)
    in
    (d_ins, d_mem)
  in
  let bench_specialized () =
    let t = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
    Gc.full_major ();
    let _, d_ins =
      Bench_util.time (fun () ->
          Array.iter (fun k -> ignore (Btree_tuples.insert t k : bool)) keys)
    in
    let _, d_mem =
      Bench_util.time (fun () ->
          Array.iter (fun k -> ignore (Btree_tuples.mem t k : bool)) keys)
    in
    (d_ins, d_mem)
  in
  let gi, gm = bench_generic () in
  let si, sm = bench_specialized () in
  Bench_util.Table.print
    ~header:[ "tree"; "insert M/s"; "mem M/s" ]
    ~rows:
      [
        [ "generic Key.Int_array compare";
          Bench_util.fmt_f (Bench_util.mops n gi);
          Bench_util.fmt_f (Bench_util.mops n gm) ];
        [ "tuple tree (order-specialised compare)";
          Bench_util.fmt_f (Bench_util.mops n si);
          Bench_util.fmt_f (Bench_util.mops n sm) ];
      ]

(* ------------------------------------------------------------------ *)
(* Smoke: traced run + machine-readable metrics                       *)
(* ------------------------------------------------------------------ *)

(* A fast end-to-end exercise of the telemetry layer, meant for CI:
     1. run a small Datalog workload with counters, tracing and the flight
        recorder on, export the Chrome trace and re-parse it;
     2. write counters, histograms and tree shapes as metrics JSON and
        re-parse it;
     3. fail when a non-chaos run fell back to the pessimistic descent.
   Any malformed artifact or failed check raises, so the bench exits
   nonzero.  Timings are not judged here: perfbench owns them. *)
let smoke cfg =
  pf "\n== smoke: traced run + metrics export ==\n";
  let threads = min 2 cfg.max_threads in
  let read_file f = In_channel.with_open_bin f In_channel.input_all in
  (* 1. traced Datalog run, with the flight recorder on: its events ride
     into the Chrome trace via the registered provider, and the drained
     rings aggregate into the contention heatmap of the metrics JSON. *)
  Telemetry.reset ();
  Telemetry.enable ~tracing:true ();
  Flight.enable ();
  let workload = pointsto_workload { cfg with scale = min cfg.scale 0.2 } in
  let engine, dt = run_engine ~kind:Storage.Btree ~threads workload in
  let heat = Flight.heat_of_events (Flight.events ()) in
  let trace_file = Filename.temp_file "smoke" ".trace.json" in
  Telemetry.export_trace ~process_name:"bench smoke" trace_file;
  Flight.disable ();
  Telemetry.disable ();
  let trace = Telemetry.Json.of_string (read_file trace_file) in
  let events =
    match Telemetry.Json.member "traceEvents" trace with
    | Some (Telemetry.Json.List l) -> List.length l
    | _ -> failwith "smoke: trace JSON has no traceEvents list"
  in
  if events = 0 then failwith "smoke: trace contains no events";
  pf "traced pointsto run: %.3fs on %d threads, %d iterations, %d trace \
      events (%s)\n"
    dt threads (Engine.iterations engine) events trace_file;
  (* 2. metrics JSON + parse-back *)
  let open Telemetry.Json in
  let snap = Telemetry.snapshot () in
  let metrics =
    Obj
      [
        ("schema_version", Int 3);
        ("config", Obj [ ("threads", Int threads); ("scale", Float cfg.scale) ]);
        ( "eval",
          Obj
            [ ("seconds", Float dt); ("iterations", Int (Engine.iterations engine)) ]
        );
        ( "tree_shape",
          Obj
            (List.map
               (fun (rel, sh) -> (rel, Tree_shape.to_json sh))
               (Engine.tree_shapes engine)) );
        ("contention", Flight.heat_to_json heat);
        ("trace", Obj [ ("file", String trace_file); ("events", Int events) ]);
        ("counters", Telemetry.counters_json snap);
        ("histograms", Telemetry.histograms_json snap);
      ]
  in
  Out_channel.with_open_bin cfg.json (fun oc ->
      output oc metrics;
      output_char oc '\n');
  let parsed = of_string (read_file cfg.json) in
  (match member "counters" parsed with
  | Some (Obj (_ :: _)) -> ()
  | _ -> failwith "smoke: metrics JSON failed parse-back");
  (match member "histograms" parsed with
  | Some (Obj (_ :: _)) -> ()
  | _ -> failwith "smoke: metrics JSON carries no histograms");
  pf "metrics written to %s (parse-back ok)\n" cfg.json;
  (* 3. bounded retries must not run out in a healthy run; chaos runs
     force validation failures on purpose and are exempt *)
  let fallbacks =
    Telemetry.get snap Telemetry.Counter.Btree_pessimistic_fallbacks
  in
  if fallbacks > 0 && not (Chaos.active ()) then
    failwith
      (Printf.sprintf
         "smoke: %d pessimistic fallback descent(s) in a non-chaos run"
         fallbacks)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  pf "\n== Bechamel micro-benchmarks (ns/op, OLS on the monotonic clock) ==\n";
  (* prebuilt 100k-element structures; probes rotate through the key set *)
  let n = 100_000 in
  let rng = Rng.create 17 in
  let keys = Array.init n (fun _ -> (Rng.int rng 100_000, Rng.int rng 100_000)) in
  let cb = CB.create () in
  let rb = RB.create () in
  let hs = HS.create () in
  let gb = GB.create () in
  Array.iter
    (fun p ->
      ignore (CB.insert cb p : bool);
      ignore (RB.insert rb p : bool);
      ignore (HS.insert hs p : bool);
      ignore (GB.insert gb p : bool))
    keys;
  let idx = ref 0 in
  let next_key () =
    let k = keys.(!idx) in
    idx := (!idx + 1) land 0xFFFF;
    k
  in
  let lock = Olock.create () in
  let mem_group =
    Test.make_grouped ~name:"fig3cd membership" ~fmt:"%s %s"
      [
        Test.make ~name:"btree" (Staged.stage (fun () -> CB.mem cb (next_key ())));
        Test.make ~name:"rbtset" (Staged.stage (fun () -> RB.mem rb (next_key ())));
        Test.make ~name:"hashset" (Staged.stage (fun () -> HS.mem hs (next_key ())));
        Test.make ~name:"google-btree"
          (Staged.stage (fun () -> GB.mem gb (next_key ())));
      ]
  in
  let grow = CB.create () in
  let grow_sess = CB.session grow in
  let counter = ref 0 in
  let insert_group =
    Test.make_grouped ~name:"fig3ab insertion" ~fmt:"%s %s"
      [
        Test.make ~name:"btree-ordered-hinted"
          (Staged.stage (fun () ->
               incr counter;
               ignore (CB.s_insert grow_sess (!counter, 0) : bool)));
        Test.make ~name:"btree-random"
          (Staged.stage (fun () -> ignore (CB.insert cb (next_key ()) : bool)));
      ]
  in
  let lock_group =
    Test.make_grouped ~name:"olock protocol" ~fmt:"%s %s"
      [
        Test.make ~name:"start_read+end_read"
          (Staged.stage (fun () ->
               let l = Olock.start_read lock in
               ignore (Olock.end_read lock l : bool)));
        Test.make ~name:"write-cycle"
          (Staged.stage (fun () ->
               Olock.start_write lock;
               Olock.end_write lock));
      ]
  in
  let table3_int = IB.create () in
  let icounter = ref 0 in
  let int_group =
    Test.make_grouped ~name:"table3 int insert" ~fmt:"%s %s"
      [
        Test.make ~name:"btree-int-ordered"
          (Staged.stage (fun () ->
               incr icounter;
               ignore (IB.insert table3_int !icounter : bool)));
      ]
  in
  let all =
    Test.make_grouped ~name:"repro" ~fmt:"%s/%s"
      [ mem_group; insert_group; lock_group; int_group ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
    in
    Benchmark.all cfg instances all
  in
  let results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock (benchmark ())
  in
  let lines = ref [] in
  Hashtbl.iter
    (fun name result ->
      let text =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.sprintf "  %-45s %10.1f ns/op" name est
        | _ -> Printf.sprintf "  %-45s (no estimate)" name
      in
      lines := text :: !lines)
    results;
  List.iter print_endline (List.sort compare !lines)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let known_experiments =
  [
    "fig3a"; "fig3b"; "fig3c"; "fig3d"; "fig3e"; "fig3f";
    "fig4a"; "fig4b"; "fig4c"; "fig4d";
    "table1"; "table2"; "fig5a"; "fig5b"; "table3";
    "ablation-width"; "ablation-search"; "ablation-merge";
    "ablation-specialization"; "ablation-locks"; "bechamel"; "smoke";
  ]

let run_experiment cfg = function
  | "fig3a" -> fig3_insert cfg ~ordered:true
  | "fig3b" -> fig3_insert cfg ~ordered:false
  | "fig3c" -> fig3_membership cfg ~ordered:true
  | "fig3d" -> fig3_membership cfg ~ordered:false
  | "fig3e" -> fig3_scan cfg ~ordered:true
  | "fig3f" -> fig3_scan cfg ~ordered:false
  | "fig4a" -> fig4 cfg ~ordered:true ~contiguous:false ~label:"a"
  | "fig4b" -> fig4 cfg ~ordered:false ~contiguous:false ~label:"b"
  | "fig4c" -> fig4 cfg ~ordered:true ~contiguous:true ~label:"c"
  | "fig4d" -> fig4 cfg ~ordered:false ~contiguous:true ~label:"d"
  | "table1" -> table1 cfg
  | "table2" -> table2 cfg
  | "fig5a" -> fig5 cfg ~which:`A
  | "fig5b" -> fig5 cfg ~which:`B
  | "table3" -> table3 cfg
  | "ablation-width" -> ablation_width cfg
  | "ablation-search" -> ablation_search cfg
  | "ablation-merge" -> ablation_merge cfg
  | "ablation-specialization" -> ablation_specialization cfg
  | "ablation-locks" -> ablation_locks cfg
  | "bechamel" -> bechamel_suite ()
  | "smoke" -> smoke cfg
  | other ->
    Printf.eprintf "unknown experiment %S; known: %s\n" other
      (String.concat ", " ("all" :: known_experiments));
    exit 2

let main experiments scale threads full smoke_only json chaos_spec serve_metrics
    serve_interval =
  (* Shared observability surface; --serve-metrics must not force the
     telemetry counters on here — the paper experiments run with telemetry
     off, the smoke toggles it itself, and a window sampled across a reset
     simply clamps to empty. *)
  let server =
    Obs_cli.setup ~telemetry_on_serve:false ~chaos:chaos_spec ~flight:false
      ~serve_metrics ~serve_interval ()
  in
  Fun.protect ~finally:(fun () -> Obs_cli.teardown server) @@ fun () ->
  let max_threads =
    match threads with
    | Some t -> max 1 t
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let cfg = { scale; max_threads; full; json } in
  let experiments =
    if smoke_only then [ "smoke" ]
    else
      match experiments with
      | [] | [ "all" ] ->
        (* "all" is the paper reproduction; the CI smoke run is explicit *)
        List.filter (fun e -> e <> "smoke") known_experiments
      | l -> l
  in
  pf "repro bench: %d hardware thread(s) visible, running up to %d worker \
      domain(s); scale=%.2f\n"
    (Domain.recommended_domain_count ())
    max_threads scale;
  if Domain.recommended_domain_count () < max_threads then
    pf "note: thread counts beyond the visible cores oversubscribe the CPU — \
        parallel speedups cannot materialise in this container (see \
        EXPERIMENTS.md).\n";
  let t0 = Bench_util.wall () in
  (* Post-mortem: if a run dies while the flight recorder is live, drain
     the rings into a crash dump before propagating. *)
  (try List.iter (run_experiment cfg) experiments
   with e when Flight.enabled () ->
     let path =
       Obs_cli.crash_dump
         ~extra:[ ("binary", Telemetry.Json.String "bench") ]
         e
     in
     Printf.eprintf "flight recorder: wrote %s (inspect with flightrec)\n" path;
     raise e);
  if Chaos.active () then pf "%s\n" (Format.asprintf "%a" Chaos.pp_fired ());
  pf "\ntotal bench time: %.1fs\n" (Bench_util.wall () -. t0)

open Cmdliner

let experiments_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:"Experiments to run (default: all).  See DESIGN.md for the index.")

let scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Multiply workload sizes by this factor.")

let threads_arg =
  Arg.(
    value & opt (some int) None
    & info [ "threads" ] ~docv:"N"
        ~doc:"Maximum worker domains (default: recommended domain count).")

let full_arg =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Use the paper's full Fig. 3 sizes (1000^2..10000^2).")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"Run only the telemetry smoke experiment and write metrics JSON \
              (the CI entry point).")

let json_arg =
  Arg.(
    value & opt string "bench_metrics.json"
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Where the smoke experiment writes machine-readable metrics.")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const main $ experiments_arg $ scale_arg $ threads_arg $ full_arg
      $ smoke_arg $ json_arg $ Obs_cli.chaos_term $ Obs_cli.serve_metrics_term
      $ Obs_cli.serve_interval_term)

let () = exit (Cmd.eval cmd)
