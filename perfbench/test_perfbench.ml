(* Tests of the serve benchmark's own pieces: the percentile rule,
   input determinism, span arithmetic, reply matching, the
   per-connection FIFO assumption against a live server, and a tiny run
   of each workload through its oracle.

     test_perfbench.exe PATH/TO/datalog_serve.exe *)

open Perfbench

let exe = ref ""

(* ------------------------------------------------------------------ *)

let test_percentile_rule () =
  Alcotest.(check bool) "p99 of 1000 has 10 beyond" true (Stats.tail_ok ~n:1000 99);
  Alcotest.(check bool) "p99 of 999 does not" false (Stats.tail_ok ~n:999 99);
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.min_samples 99);
  Alcotest.(check int) "p90 needs 100" 100 (Stats.min_samples 90);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.min_samples 50);
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.)) "p99 nearest rank" 990. (Stats.percentile a 99);
  Alcotest.(check (float 0.)) "median" 500. (Stats.median a);
  Alcotest.(check int) "10 beyond p99" 10 (Stats.beyond ~n:1000 99);
  Alcotest.(check int) "1000 samples support p99" 99 (Stats.top_percentile 1000);
  Alcotest.(check int) "300 samples support p96" 96 (Stats.top_percentile 300)

(* ------------------------------------------------------------------ *)

(* The first 50 rounds of traffic a seed gives, the base LOADs and one
   bulk_load cycle. *)
let inputs_of kind seed =
  let cfg = Workload.tiny kind in
  let rng = Rng.create seed in
  let db = Workload.base_db cfg in
  let e = Workload.evaluate db in
  let next_round = Workload.rounds cfg e (Rng.split rng) in
  ( List.init 50 next_round,
    Workload.batches cfg.Workload.batch_rows db.Workload.facts,
    Workload.bulk_rows ~prefix:"0" cfg.Workload.cycle_rows (Rng.split rng) )

let test_inputs_deterministic () =
  List.iter
    (fun kind ->
      let name = Workload.name kind in
      let a = inputs_of kind 7 and b = inputs_of kind 7 in
      Alcotest.(check bool) (name ^ ": same seed, same inputs") true (a = b);
      let c = inputs_of kind 8 in
      Alcotest.(check bool) (name ^ ": other seed, other inputs") false (a = c))
    [ Workload.Point_query; Workload.Ingest_query; Workload.Bulk_load ];
  let rounds, _, _ = inputs_of Workload.Ingest_query 7 in
  List.iter
    (fun round ->
      Alcotest.(check (list bool)) "ASSERT, then the timed fresh read, then plain reads"
        (true :: true :: List.map (fun _ -> false) (List.tl (List.tl round)))
        (List.mapi
           (fun i r -> if i = 0 then r.Workload.conn = 1 else r.Workload.timed)
           round))
    rounds

(* ------------------------------------------------------------------ *)

let mk name t0 t1 kids = { Stats.name; t0; t1; kids }

let test_spans () =
  let ok = mk "req" 0 100 [ mk "a" 0 30 []; mk "b" 40 90 [ mk "c" 50 60 [] ] ] in
  Alcotest.(check bool) "nested spans sum" true (Stats.check_sums ok = Ok ());
  Alcotest.(check int) "self time" 20 (Stats.self_time ok);
  Alcotest.(check (float 1e-9)) "uncovered share" 0.2 (Stats.uncovered_frac ok);
  Alcotest.(check int) "total by name" 10 (Stats.total_ns "c" ok);
  let overlap = mk "req" 0 100 [ mk "a" 0 60 []; mk "b" 50 90 [] ] in
  Alcotest.(check bool) "overlapping siblings rejected" true
    (Stats.check_sums overlap = Error "req");
  let outside = mk "req" 0 100 [ mk "a" 0 60 [ mk "x" 50 70 [] ] ] in
  Alcotest.(check bool) "child outside its parent rejected" true
    (Stats.check_sums outside = Error "a");
  let (), tree =
    Stats.timed "root" (fun () ->
        Stats.span "one" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)));
        Stats.span "two" (fun () -> Stats.span "three" (fun () -> ())))
  in
  Alcotest.(check bool) "recorded tree sums" true (Stats.check_sums tree = Ok ());
  Alcotest.(check (list string)) "recorded children" [ "one"; "two" ]
    (List.map (fun k -> k.Stats.name) tree.Stats.kids)

(* ------------------------------------------------------------------ *)

let test_reply_reader () =
  let r = Wire.reader () in
  let got = Wire.feed r "OK queued=1 pending=1\nDATA 2 vpt\n1\t2\n" in
  Alcotest.(check int) "one complete reply so far" 1 (List.length got);
  let got = Wire.feed r "3\t4\nEND\nERR busy retry\nDATA 0 x\nEND\n" in
  Alcotest.(check bool) "data, err, empty data" true
    (got
    = [ Wire.R_data ("vpt", [ "1\t2"; "3\t4" ]); Wire.R_err ("busy", "retry");
        Wire.R_data ("x", []) ]);
  let key = Workload.answer_key [ "3\t4"; "1\t2" ] in
  Alcotest.(check bool) "rows checked order-free" true
    (Wire.check (Workload.Rows key) (Wire.R_data ("", [ "1\t2"; "3\t4" ])) = Wire.Good);
  Alcotest.(check bool) "OK where DATA is due" true
    (Wire.check (Workload.Rows key) (Wire.R_ok "") = Wire.Class_mismatch);
  Alcotest.(check bool) "DATA where OK is due" true
    (Wire.check Workload.Ack (Wire.R_data ("", [])) = Wire.Class_mismatch);
  Alcotest.(check bool) "wrong rows" true
    (Wire.check (Workload.Rows key) (Wire.R_data ("", [ "1\t2" ])) = Wire.Wrong_answer)

(* ------------------------------------------------------------------ *)

let env tmp = { Bench.exe = !exe; tmp; seed = 11; seconds = 2.; log = ignore }

(* The generator's discipline rests on one property of the server: per
   connection, replies of one class come back in request order.  Across
   classes it does not hold — a QUERY pipelined before an ASSERT in one
   write may be answered after it — and the FIFO matcher must then flag
   both replies as class mismatches rather than pair them wrongly. *)
let test_fifo_per_connection () =
  let cfg = Workload.tiny Workload.Ingest_query in
  let db = Workload.base_db cfg in
  let oracle = Workload.evaluate db in
  let e = env "fifo-tmp" in
  let s = Bench.start e cfg ~traced:false "fifo-tmp/server" in
  Fun.protect ~finally:(fun () ->
      Bench.stop s;
      Child.rm_rf "fifo-tmp")
  @@ fun () ->
  ignore (Bench.install s db cfg);
  let path = s.Bench.child.Child.sock in
  (* fresh variables: each ASSERT adds exactly one vpt tuple *)
  let v k = (Pointsto_gen.scaled cfg.Workload.scale).Pointsto_gen.variables + k in
  let assert_ k o = Printf.sprintf "ASSERT new %d %d" (v k) o in
  let query v =
    { Workload.due = 0.; conn = 0; timed = false; line = Printf.sprintf "QUERY vpt %d _" v;
      expect = Workload.Rows (Workload.key_of (Workload.by_first oracle "vpt") v) }
  in
  (* one class on one connection: pipelined answers arrive in order *)
  let qs = Array.init 8 (fun v -> query v) in
  let out = Wire.run ~path ~nconns:1 ~drain_s:10. qs in
  Array.iter
    (fun o ->
      Alcotest.(check string) ("in order: " ^ o.Wire.req.Workload.line) "good"
        (Wire.verdict_name o.Wire.verdict))
    out;
  (* two classes on one connection, written in a single burst *)
  let full = Workload.full_with oracle "vpt" [ assert_ 7 8 ] in
  let mixed =
    [| { Workload.due = 0.; conn = 0; timed = false; line = "QUERY vpt _ _"; expect = Workload.Rows full };
       { Workload.due = 0.; conn = 0; timed = false; line = assert_ 7 8; expect = Workload.Ack } |]
  in
  let out = Wire.run ~path ~nconns:1 ~drain_s:10. mixed in
  let verdicts = Array.to_list (Array.map (fun o -> Wire.verdict_name o.Wire.verdict) out) in
  Alcotest.(check bool)
    ("mixed classes are either in order or flagged: " ^ String.concat "," verdicts)
    true
    (verdicts = [ "good"; "good" ] || verdicts = [ "class_mismatch"; "class_mismatch" ]);
  (* the generator's discipline: one class per connection *)
  let split =
    [| { Workload.due = 0.; conn = 1; timed = false; line = assert_ 9 10; expect = Workload.Ack };
       { Workload.due = 0.05; conn = 0; timed = false; line = "QUERY vpt _ _";
         expect =
           Workload.Rows (Workload.full_with oracle "vpt" [ assert_ 7 8; assert_ 9 10 ]) } |]
  in
  let out = Wire.run ~path ~nconns:2 ~drain_s:10. split in
  Array.iter
    (fun o ->
      Alcotest.(check string) ("one class per connection: " ^ o.Wire.req.Workload.line)
        "good" (Wire.verdict_name o.Wire.verdict))
    out

(* ------------------------------------------------------------------ *)

let tiny_run kind () =
  let tmp = "tiny-" ^ Workload.name kind in
  let e = env tmp in
  Fun.protect ~finally:(fun () -> Child.rm_rf tmp) @@ fun () ->
  let p = Bench.pass e (Workload.tiny kind) ~traced:(kind <> Workload.Point_query) in
  List.iter prerr_endline p.Bench.why;
  Alcotest.(check int) "no failed operation" 0 p.Bench.failed;
  Alcotest.(check bool) "operations attempted" true (p.Bench.attempted > 0);
  Alcotest.(check bool) "latencies measured" true (Array.length p.Bench.latency_ms > 0);
  Alcotest.(check int) "no server left running" 0 (List.length !Child.live)

let () =
  (* first argument: the server binary; the rest go to alcotest *)
  let n = Array.length Sys.argv in
  if n < 2 then failwith "usage: test_perfbench.exe DATALOG_SERVE [alcotest args]";
  exe := Sys.argv.(1);
  let argv = Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 2 (n - 2)) in
  Alcotest.run ~argv "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "spans sum to parent" `Quick test_spans;
        ] );
      ( "workload",
        [ Alcotest.test_case "seeded inputs" `Quick test_inputs_deterministic ] );
      ( "wire",
        [
          Alcotest.test_case "reply reader" `Quick test_reply_reader;
          Alcotest.test_case "fifo per connection" `Quick test_fifo_per_connection;
        ] );
      ( "tiny",
        [
          Alcotest.test_case "point_query" `Quick (tiny_run Workload.Point_query);
          Alcotest.test_case "ingest_query" `Quick (tiny_run Workload.Ingest_query);
          Alcotest.test_case "bulk_load" `Quick (tiny_run Workload.Bulk_load);
        ] );
    ]
