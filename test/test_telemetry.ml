(* Tests for the telemetry layer: domain-local counter aggregation, the
   hand-rolled JSON emitter/parser, and Chrome trace export.

   Telemetry state is global; every test resets and disables it on the way
   out so tests stay order-independent. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_telemetry ?tracing f =
  Telemetry.reset ();
  Telemetry.enable ?tracing ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_inert () =
  Telemetry.disable ();
  Telemetry.reset ();
  Telemetry.bump Telemetry.Counter.Btree_restarts;
  Telemetry.add Telemetry.Counter.Pool_busy_ns 1_000;
  let s = Telemetry.snapshot () in
  check_int "no counts recorded while disabled" 0
    (Telemetry.get s Telemetry.Counter.Btree_restarts);
  check_bool "no shards recorded" true (s.Telemetry.per_domain = [])

let test_single_domain_counts () =
  with_telemetry (fun () ->
      for _ = 1 to 42 do
        Telemetry.bump Telemetry.Counter.Olock_write_aborts
      done;
      Telemetry.add Telemetry.Counter.Eval_delta_tuples 1234;
      let s = Telemetry.snapshot () in
      check_int "bump counts exactly" 42
        (Telemetry.get s Telemetry.Counter.Olock_write_aborts);
      check_int "add counts exactly" 1234
        (Telemetry.get s Telemetry.Counter.Eval_delta_tuples);
      check_int "untouched counter stays zero" 0
        (Telemetry.get s Telemetry.Counter.Btree_leaf_splits))

let test_multi_domain_aggregation () =
  (* >= 4 domains each bump their own shard; the snapshot must sum them and
     report each domain separately. *)
  with_telemetry (fun () ->
      let domains = 4 and per_domain = 10_000 in
      let worker () =
        for _ = 1 to per_domain do
          Telemetry.bump Telemetry.Counter.Btree_restarts
        done
      in
      let spawned =
        List.init (domains - 1) (fun _ -> Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join spawned;
      let s = Telemetry.snapshot () in
      check_int "totals sum across domains" (domains * per_domain)
        (Telemetry.get s Telemetry.Counter.Btree_restarts);
      check_int "one shard per active domain" domains
        (List.length s.Telemetry.per_domain);
      let idx = Telemetry.Counter.index Telemetry.Counter.Btree_restarts in
      List.iter
        (fun (_, counts) ->
          check_int "each shard saw its own bumps" per_domain counts.(idx))
        s.Telemetry.per_domain)

let test_concurrent_btree_inserts_aggregate () =
  (* End-to-end: concurrent inserts into the specialized tuple tree must
     yield a consistent cardinality and strictly positive split counters
     (small capacity forces splits), aggregated across all inserting
     domains. *)
  with_telemetry (fun () ->
      let t = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] ~capacity:4 () in
      let domains = 4 and per_domain = 4_000 in
      let worker d () =
        for i = 0 to per_domain - 1 do
          let k = (d * per_domain) + i in
          ignore (Btree_tuples.insert t [| k; k lxor 5 |] : bool)
        done
      in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      check_int "all tuples present" (domains * per_domain)
        (Btree_tuples.cardinal t);
      Btree_tuples.check_invariants t;
      let s = Telemetry.snapshot () in
      let leaf = Telemetry.get s Telemetry.Counter.Btree_leaf_splits in
      let root = Telemetry.get s Telemetry.Counter.Btree_root_splits in
      check_bool "leaf splits observed" true (leaf > 0);
      check_bool "root splits observed" true (root > 0);
      (* a 16k-element capacity-4 tree needs at least n/4 leaf splits *)
      check_bool "split count plausible" true
        (leaf >= domains * per_domain / 8))

let test_reset_clears () =
  with_telemetry (fun () ->
      Telemetry.bump Telemetry.Counter.Pool_jobs;
      Telemetry.instant "marker";
      Telemetry.reset ();
      let s = Telemetry.snapshot () in
      check_int "counters cleared" 0
        (Telemetry.get s Telemetry.Counter.Pool_jobs);
      check_int "events cleared" 0 (Telemetry.event_count ()))

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("name", String "trace \"quoted\" \\ slash");
        ("count", Int (-42));
        ("rate", Float 0.5);
        ("flag", Bool true);
        ("nothing", Null);
        ("items", List [ Int 1; Int 2; Obj [ ("nested", Bool false) ] ]);
        ("empty_list", List []);
        ("empty_obj", Obj []);
      ]
  in
  let back = of_string (to_string doc) in
  check_bool "roundtrip preserves document" true (back = doc);
  check_string "escapes survive"
    "trace \"quoted\" \\ slash"
    (match member "name" back with Some (String s) -> s | _ -> "<missing>")

let test_json_parser_rejects_garbage () =
  let open Telemetry.Json in
  let rejects s =
    match of_string s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  check_bool "bare garbage" true (rejects "nonsense");
  check_bool "unterminated string" true (rejects "\"abc");
  check_bool "trailing junk" true (rejects "{} extra");
  check_bool "unclosed object" true (rejects "{\"a\": 1")

(* ------------------------------------------------------------------ *)
(* Trace export                                                       *)
(* ------------------------------------------------------------------ *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let test_trace_export_parses_back () =
  with_telemetry ~tracing:true (fun () ->
      Telemetry.with_span ~cat:"test" "outer" (fun () ->
          Telemetry.with_span ~cat:"test" "inner" (fun () ->
              Telemetry.bump Telemetry.Counter.Btree_hint_hits);
          Telemetry.instant ~cat:"test" "tick");
      let file = Filename.temp_file "telemetry_test" ".trace.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Telemetry.export_trace ~process_name:"test proc" file;
          let doc = Telemetry.Json.of_string (read_file file) in
          let events =
            match Telemetry.Json.member "traceEvents" doc with
            | Some (Telemetry.Json.List l) -> l
            | _ -> Alcotest.fail "traceEvents missing or not a list"
          in
          check_bool "spans + instant + metadata present" true
            (List.length events >= 4);
          let names =
            List.filter_map
              (fun e ->
                match Telemetry.Json.member "name" e with
                | Some (Telemetry.Json.String s) -> Some s
                | _ -> None)
              events
          in
          List.iter
            (fun expected ->
              check_bool (expected ^ " event present") true
                (List.mem expected names))
            [ "outer"; "inner"; "tick"; "process_name" ];
          (* every event carries the mandatory Chrome trace fields *)
          List.iter
            (fun e ->
              match
                ( Telemetry.Json.member "ph" e,
                  Telemetry.Json.member "pid" e,
                  Telemetry.Json.member "ts" e )
              with
              | Some (Telemetry.Json.String _), Some _, Some _ -> ()
              | _ -> Alcotest.fail "event missing ph/pid/ts")
            events))

let test_counters_json_shape () =
  with_telemetry (fun () ->
      Telemetry.bump Telemetry.Counter.Btree_hint_hits;
      Telemetry.bump Telemetry.Counter.Btree_hint_misses;
      let s = Telemetry.snapshot () in
      let doc = Telemetry.counters_json s in
      (match Telemetry.Json.member "btree.hint_hits" doc with
      | Some (Telemetry.Json.Int 1) -> ()
      | _ -> Alcotest.fail "btree.hint_hits missing from counters JSON");
      match Telemetry.Json.member "btree.hint_hit_rate" doc with
      | Some (Telemetry.Json.Float r) ->
        check_bool "hit rate computed" true (Float.abs (r -. 0.5) < 1e-9)
      | _ -> Alcotest.fail "btree.hint_hit_rate missing");
  (* all-zero snapshot: rates defined, no NaN *)
  Telemetry.reset ();
  Telemetry.enable ();
  let s = Telemetry.snapshot () in
  check_bool "hint rate of empty snapshot is 0" true
    (Telemetry.hint_hit_rate s = 0.0);
  check_bool "imbalance of empty snapshot is finite" true
    (Float.is_finite (Telemetry.imbalance s));
  Telemetry.disable ();
  Telemetry.reset ()

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                 *)
(* ------------------------------------------------------------------ *)

let test_hist_bucket_boundaries () =
  let module H = Telemetry.Hist in
  (* every bucket's range contains the values that map to it, ranges are
     contiguous, and bucket_of_value is monotone *)
  let samples =
    [ 0; 1; 2; 7; 8; 9; 15; 16; 17; 63; 64; 65; 1_000; 1_000_000;
      123_456_789; max_int / 2 ]
  in
  List.iter
    (fun v ->
      let b = H.bucket_of_value v in
      check_bool "bucket index in range" true (b >= 0 && b < H.bucket_count);
      let lo, hi = H.bucket_bounds b in
      check_bool
        (Printf.sprintf "value %d inside its bucket [%d,%d)" v lo hi)
        true
        (v >= lo && (v < hi || b = H.bucket_count - 1)))
    samples;
  for b = 0 to H.bucket_count - 2 do
    let _, hi = H.bucket_bounds b in
    let lo', _ = H.bucket_bounds (b + 1) in
    check_int (Printf.sprintf "buckets %d/%d contiguous" b (b + 1)) hi lo'
  done;
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let b = H.bucket_of_value v in
      check_bool "bucket_of_value monotone" true (b >= !prev);
      prev := b)
    samples;
  check_int "negative clamps to bucket 0" 0 (H.bucket_of_value (-5))

let test_hist_quantile_monotone () =
  with_telemetry (fun () ->
      (* a skewed distribution: many fast ops, a long tail *)
      for i = 1 to 1_000 do
        Telemetry.hist_record Telemetry.Hist.Pool_job_ns (100 + (i mod 7))
      done;
      for _ = 1 to 20 do
        Telemetry.hist_record Telemetry.Hist.Pool_job_ns 50_000
      done;
      Telemetry.hist_record Telemetry.Hist.Pool_job_ns 9_999_999;
      let s = Telemetry.snapshot () in
      let h = Telemetry.hist_of s Telemetry.Hist.Pool_job_ns in
      check_int "total samples" 1_021 h.Telemetry.h_total;
      check_int "exact max kept" 9_999_999 h.Telemetry.h_max;
      let p50 = Telemetry.hist_quantile h 0.5 in
      let p90 = Telemetry.hist_quantile h 0.9 in
      let p99 = Telemetry.hist_quantile h 0.99 in
      check_bool "p50 <= p90" true (p50 <= p90);
      check_bool "p90 <= p99" true (p90 <= p99);
      check_bool "p99 <= max" true (p99 <= h.Telemetry.h_max);
      check_bool "p50 in the fast mode (rel. error <= 1/8)" true
        (p50 >= 90 && p50 <= 120);
      check_bool "mean between p50 and max" true
        (Telemetry.hist_mean h > float_of_int p50
        && Telemetry.hist_mean h < float_of_int h.Telemetry.h_max))

let test_hist_merge_equals_concat () =
  (* recording half the values on a spawned domain and half on the main one
     must merge to the same histogram as recording all of them on one
     domain *)
  let values_a = List.init 500 (fun i -> 10 + (i * 17 mod 5_000)) in
  let values_b = List.init 500 (fun i -> 3 + (i * 101 mod 200_000)) in
  let record vs =
    List.iter (Telemetry.hist_record Telemetry.Hist.Eval_iteration_ns) vs
  in
  let merged =
    with_telemetry (fun () ->
        let d = Domain.spawn (fun () -> record values_b) in
        record values_a;
        Domain.join d;
        let s = Telemetry.snapshot () in
        Telemetry.hist_of s Telemetry.Hist.Eval_iteration_ns)
  in
  let concat =
    with_telemetry (fun () ->
        record values_a;
        record values_b;
        let s = Telemetry.snapshot () in
        Telemetry.hist_of s Telemetry.Hist.Eval_iteration_ns)
  in
  check_int "totals equal" concat.Telemetry.h_total merged.Telemetry.h_total;
  check_int "sums equal" concat.Telemetry.h_sum merged.Telemetry.h_sum;
  check_int "maxima equal" concat.Telemetry.h_max merged.Telemetry.h_max;
  check_bool "bucket arrays equal" true
    (merged.Telemetry.h_counts = concat.Telemetry.h_counts)

let test_hist_sampling_deterministic () =
  (* Btree_insert_ns is sampled 1-in-2^shift by a seeded per-shard stream:
     the same seed must select the same number of events, and the count
     must sit strictly between 0 and N *)
  let n = 20_000 in
  let run seed =
    Telemetry.set_hist_seed seed;
    with_telemetry (fun () ->
        for _ = 1 to n do
          let t0 = Telemetry.hist_start Telemetry.Hist.Btree_insert_ns in
          Telemetry.hist_end Telemetry.Hist.Btree_insert_ns t0
        done;
        let s = Telemetry.snapshot () in
        (Telemetry.hist_of s Telemetry.Hist.Btree_insert_ns).Telemetry.h_total)
  in
  let a = run 42 and b = run 42 and c = run 43 in
  check_int "same seed, same sample count" a b;
  check_bool "sampling actually thins" true (a > 0 && a < n);
  let shift = Telemetry.Hist.sample_shift Telemetry.Hist.Btree_insert_ns in
  check_bool "shift configured for btree inserts" true (shift > 0);
  let expect = n / (1 lsl shift) in
  check_bool "sample count near n / 2^shift" true
    (a > expect / 2 && a < expect * 2);
  (* different seed may coincide in count but the API must not fail *)
  check_bool "other seed also thins" true (c > 0 && c < n);
  Telemetry.set_hist_seed 0x7FB5D329

let test_hist_disabled_records_nothing () =
  Telemetry.disable ();
  Telemetry.reset ();
  check_int "hist_start disabled returns 0" 0
    (Telemetry.hist_start Telemetry.Hist.Olock_write_wait_ns);
  check_int "hist_time disabled returns 0" 0 (Telemetry.hist_time ());
  Telemetry.hist_record Telemetry.Hist.Pool_job_ns 123;
  let s = Telemetry.snapshot () in
  check_int "nothing recorded while disabled" 0
    (Telemetry.hist_of s Telemetry.Hist.Pool_job_ns).Telemetry.h_total

(* ------------------------------------------------------------------ *)
(* Exporters: v2 metrics JSON and Prometheus text format              *)
(* ------------------------------------------------------------------ *)

let test_histograms_json_parses_back () =
  with_telemetry (fun () ->
      for i = 1 to 100 do
        Telemetry.hist_record Telemetry.Hist.Eval_iteration_ns (i * 1_000)
      done;
      let s = Telemetry.snapshot () in
      let doc =
        Telemetry.Json.of_string
          (Telemetry.Json.to_string (Telemetry.histograms_json s))
      in
      let h =
        match Telemetry.Json.member "eval.iteration_ns" doc with
        | Some h -> h
        | None -> Alcotest.fail "eval.iteration_ns missing from JSON"
      in
      let int_member k =
        match Telemetry.Json.member k h with
        | Some (Telemetry.Json.Int v) -> v
        | _ -> Alcotest.fail (k ^ " missing or not an int")
      in
      check_int "count" 100 (int_member "count");
      check_int "sum" (5050 * 1_000) (int_member "sum_ns");
      check_int "max exact" 100_000 (int_member "max_ns");
      check_bool "quantiles ordered" true
        (int_member "p50_ns" <= int_member "p90_ns"
        && int_member "p90_ns" <= int_member "p99_ns"
        && int_member "p99_ns" <= int_member "max_ns");
      (* bucket triples [lo; hi; c] must sum back to count *)
      match Telemetry.Json.member "buckets" h with
      | Some (Telemetry.Json.List triples) ->
        let total =
          List.fold_left
            (fun acc t ->
              match t with
              | Telemetry.Json.List
                  [ Telemetry.Json.Int lo; Telemetry.Json.Int hi;
                    Telemetry.Json.Int c ] ->
                check_bool "bucket range sane" true (lo < hi && c > 0);
                acc + c
              | _ -> Alcotest.fail "bucket is not a [lo, hi, count] triple")
            0 triples
        in
        check_int "bucket counts sum to total" 100 total
      | _ -> Alcotest.fail "buckets missing or not a list")

(* Minimal Prometheus text-format reader for parse-back: returns
   (name, labels-fragment, value) per sample line. *)
let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             let key = String.sub line 0 i in
             let v = float_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
             let name, labels =
               match String.index_opt key '{' with
               | Some j ->
                 ( String.sub key 0 j,
                   String.sub key j (String.length key - j) )
               | None -> (key, "")
             in
             Some (name, labels, v))

let prom_value samples name labels =
  match
    List.find_opt (fun (n, l, _) -> n = name && l = labels) samples
  with
  | Some (_, _, v) -> v
  | None -> Alcotest.fail (Printf.sprintf "sample %s%s missing" name labels)

let test_prometheus_parse_back () =
  with_telemetry (fun () ->
      for _ = 1 to 7 do
        Telemetry.bump Telemetry.Counter.Pool_jobs
      done;
      Telemetry.add Telemetry.Counter.Pool_busy_ns 2_500_000_000;
      for i = 1 to 64 do
        Telemetry.hist_record Telemetry.Hist.Pool_job_ns (i * 100)
      done;
      let s = Telemetry.snapshot () in
      let prom = Telemetry.Prom.create () in
      Telemetry.prometheus_of_snapshot prom s;
      Telemetry.Prom.gauge prom
        ~labels:[ ("relation", "path") ]
        "repro_btree_shape_height" 3.0;
      let text = Telemetry.Prom.to_string prom in
      let samples = parse_prom text in
      check_bool "counter exported" true
        (prom_value samples "repro_pool_jobs_total" "" = 7.0);
      check_bool "ns counter exported in seconds" true
        (Float.abs (prom_value samples "repro_pool_busy_seconds_total" "" -. 2.5)
        < 1e-9);
      check_bool "labelled gauge exported" true
        (prom_value samples "repro_btree_shape_height" "{relation=\"path\"}"
        = 3.0);
      check_bool "+Inf bucket equals count" true
        (prom_value samples "repro_pool_job_ns_bucket" "{le=\"+Inf\"}" = 64.0);
      check_bool "histogram count exported" true
        (prom_value samples "repro_pool_job_ns_count" "" = 64.0);
      check_bool "histogram sum exported" true
        (prom_value samples "repro_pool_job_ns_sum" ""
        = float_of_int (2080 * 100));
      (* cumulative buckets must be non-decreasing and end at the count *)
      let buckets =
        List.filter (fun (n, _, _) -> n = "repro_pool_job_ns_bucket") samples
      in
      check_bool "several bucket lines" true (List.length buckets >= 3);
      let last =
        List.fold_left
          (fun prev (_, _, v) ->
            check_bool "cumulative non-decreasing" true (v >= prev);
            v)
          0.0 buckets
      in
      check_bool "last cumulative equals count" true (last = 64.0);
      (* HELP/TYPE headers appear exactly once per family *)
      let header_lines =
        String.split_on_char '\n' text
        |> List.filter (fun l ->
               l = "# TYPE repro_pool_job_ns histogram")
      in
      check_int "one TYPE header per family" 1 (List.length header_lines))

(* Exposition-format completeness: every exported sample family must carry
   exactly one # HELP and one # TYPE line, including the flight-recorder
   heatmap counters (emitted here the same way datalog_cli's
   --prometheus path does). *)
let test_prometheus_help_type_complete () =
  with_telemetry (fun () ->
      Telemetry.bump Telemetry.Counter.Pool_jobs;
      Telemetry.add Telemetry.Counter.Pool_busy_ns 1_000_000;
      Telemetry.hist_record Telemetry.Hist.Btree_insert_ns 500;
      let s = Telemetry.snapshot () in
      let prom = Telemetry.Prom.create () in
      Telemetry.prometheus_of_snapshot prom s;
      (* heatmap families, as written by datalog_cli --prometheus *)
      Flight.enable ~capacity:64 ();
      Flight.record Flight.Ev.Validation_fail 1 2 0;
      Flight.record Flight.Ev.Upgrade_fail 0 1 0;
      Flight.record Flight.Ev.Restart 1 0 0;
      Flight.record Flight.Ev.Lock_wait 12_000 0 0;
      let heat = Flight.heat_of_events (Flight.events ()) in
      Flight.disable ();
      List.iter
        (fun ((level, bucket), counts) ->
          Array.iteri
            (fun cls n ->
              if n > 0 then
                Telemetry.Prom.counter prom
                  ~help:"Flight-recorder contention events by node identity."
                  ~labels:
                    [
                      ("class", Flight.heat_classes.(cls));
                      ("level", string_of_int level);
                      ("bucket", string_of_int bucket);
                    ]
                  "repro_contention_events_total" (float_of_int n))
            counts)
        heat.Flight.heat_cells;
      Telemetry.Prom.counter prom ~help:"Flight-recorder root restarts."
        "repro_contention_restarts_total"
        (float_of_int heat.Flight.heat_restarts);
      Telemetry.Prom.counter prom
        ~help:"Summed contended write-lock wait observed by the recorder."
        "repro_contention_lock_wait_seconds_total"
        (float_of_int heat.Flight.heat_lock_wait_ns /. 1e9);
      let text = Telemetry.Prom.to_string prom in
      let lines = String.split_on_char '\n' text in
      let tagged tag =
        List.filter_map
          (fun l ->
            let prefix = "# " ^ tag ^ " " in
            if String.length l > String.length prefix
               && String.sub l 0 (String.length prefix) = prefix
            then
              let rest =
                String.sub l (String.length prefix)
                  (String.length l - String.length prefix)
              in
              match String.index_opt rest ' ' with
              | Some i -> Some (String.sub rest 0 i)
              | None -> Some rest
            else None)
          lines
      in
      let helps = tagged "HELP" and types = tagged "TYPE" in
      check_bool "HELP lines present" true (helps <> []);
      (* no family announced twice *)
      check_int "HELP families unique" (List.length helps)
        (List.length (List.sort_uniq compare helps));
      check_int "TYPE families unique" (List.length types)
        (List.length (List.sort_uniq compare types));
      check_bool "heatmap family typed" true
        (List.mem "repro_contention_events_total" types);
      check_bool "heatmap family helped" true
        (List.mem "repro_contention_events_total" helps);
      (* every sample belongs to a family that has both HELP and TYPE *)
      let strip name suffix =
        let nl = String.length name and sl = String.length suffix in
        if nl > sl && String.sub name (nl - sl) sl = suffix then
          Some (String.sub name 0 (nl - sl))
        else None
      in
      let family name =
        let base =
          List.find_map (strip name) [ "_bucket"; "_sum"; "_count" ]
        in
        match base with
        | Some b when List.mem b types -> b
        | _ -> name
      in
      List.iter
        (fun (name, _, _) ->
          let f = family name in
          check_bool (Printf.sprintf "family %s has TYPE" f) true
            (List.mem f types);
          check_bool (Printf.sprintf "family %s has HELP" f) true
            (List.mem f helps))
        (parse_prom text))

(* Exposition escaping with hostile strings: HELP text must escape
   backslash and newline (but not quotes); label values must escape
   backslash, newline, and the double quote.  Checked against the exact
   expected text, because %S-style OCaml escaping produces output that
   Prometheus parsers reject (e.g. \t, \ddd). *)
let test_prometheus_hostile_escaping () =
  let prom = Telemetry.Prom.create () in
  Telemetry.Prom.counter prom
    ~help:"win path C:\\tmp\nsecond \"quoted\" line"
    ~labels:[ ("file", "C:\\logs\n\"x\".txt") ]
    "repro_hostile_total" 1.0;
  let expected =
    "# HELP repro_hostile_total win path C:\\\\tmp\\nsecond \"quoted\" line\n"
    ^ "# TYPE repro_hostile_total counter\n"
    ^ "repro_hostile_total{file=\"C:\\\\logs\\n\\\"x\\\".txt\"} 1\n"
  in
  check_string "hostile HELP and label value escaped exactly" expected
    (Telemetry.Prom.to_string prom);
  (* the output must stay single-HELP-line: no raw newline anywhere inside
     a HELP line or a label value *)
  let lines = String.split_on_char '\n' (Telemetry.Prom.to_string prom) in
  check_int "exactly three lines plus trailing newline" 4 (List.length lines);
  (* benign strings pass through untouched *)
  let prom2 = Telemetry.Prom.create () in
  Telemetry.Prom.gauge prom2 ~help:"plain help."
    ~labels:[ ("k", "v") ]
    "repro_plain" 2.0;
  check_string "benign strings unchanged"
    ("# HELP repro_plain plain help.\n# TYPE repro_plain gauge\n"
   ^ "repro_plain{k=\"v\"} 2\n")
    (Telemetry.Prom.to_string prom2)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let with_flight ?capacity f =
  Flight.enable ?capacity ();
  Fun.protect ~finally:(fun () -> Flight.disable ()) f

let test_flight_disabled_records_nothing () =
  Flight.enable ~capacity:64 ();
  Flight.disable ();
  for i = 1 to 50 do
    Flight.record Flight.Ev.Restart i 0 0
  done;
  check_int "no events while disabled" 0 (List.length (Flight.events ()));
  check_int "recorded_total stays zero" 0 (Flight.recorded_total ())

let test_flight_wraparound () =
  with_flight ~capacity:8 (fun () ->
      for i = 1 to 20 do
        Flight.record Flight.Ev.Restart i 0 0
      done;
      let evs = Flight.events () in
      check_int "ring keeps exactly capacity events" 8 (List.length evs);
      check_int "total counts overwritten events" 20
        (Flight.recorded_total ());
      (* survivors are the newest [capacity] events, oldest first *)
      List.iteri
        (fun i e ->
          check_int "survivor order" (13 + i) e.Flight.e_a1;
          check_bool "kind preserved" true
            (e.Flight.e_kind = Flight.Ev.Restart))
        evs)

let test_flight_multi_domain_writers () =
  with_flight ~capacity:1024 (fun () ->
      let per_worker = 100 in
      Pool.with_pool 4 (fun pool ->
          Pool.run pool (fun w ->
              for i = 1 to per_worker do
                Flight.record Flight.Ev.Restart (1000 + w) i 0
              done));
      let evs =
        List.filter
          (fun e ->
            e.Flight.e_kind = Flight.Ev.Restart && e.Flight.e_a1 >= 1000)
          (Flight.events ())
      in
      check_int "all workers' events survive" (4 * per_worker)
        (List.length evs);
      for w = 0 to 3 do
        let mine =
          List.filter (fun e -> e.Flight.e_a1 = 1000 + w) evs
        in
        check_int (Printf.sprintf "worker %d event count" w) per_worker
          (List.length mine);
        (* each worker's events all come from one domain's ring, in
           program order *)
        match mine with
        | [] -> ()
        | first :: _ ->
          check_bool "single ring per worker" true
            (List.for_all
               (fun e -> e.Flight.e_domain = first.Flight.e_domain)
               mine);
          ignore
            (List.fold_left
               (fun prev e ->
                 check_bool "per-domain order preserved" true
                   (e.Flight.e_a2 = prev + 1);
                 e.Flight.e_a2)
               0 mine)
      done;
      let domains =
        List.sort_uniq compare
          (List.map (fun e -> e.Flight.e_domain) evs)
      in
      check_int "four distinct writer domains" 4 (List.length domains))

let test_flight_dump_roundtrip () =
  with_flight ~capacity:32 (fun () ->
      Flight.record Flight.Ev.Validation_fail 2 5 0;
      Flight.record Flight.Ev.Fallback 16 0 0;
      Flight.record Flight.Ev.Phase Flight.phase_write_enter 0 0;
      let live = Flight.events () in
      (* in-memory round-trip *)
      let j = Flight.to_json ~reason:"unit test" ~seed:99 () in
      let d = Flight.dump_of_json j in
      check_string "reason survives" "unit test" d.Flight.d_reason;
      check_int "seed survives" 99 d.Flight.d_seed;
      check_int "capacity survives" 32 d.Flight.d_capacity;
      let reloaded = Flight.dump_events d in
      check_int "event count survives" (List.length live)
        (List.length reloaded);
      List.iter2
        (fun a b ->
          check_bool "kind survives" true (a.Flight.e_kind = b.Flight.e_kind);
          check_int "ts survives" a.Flight.e_ts b.Flight.e_ts;
          check_bool "args survive" true
            (Flight.event_args a = Flight.event_args b))
        live reloaded;
      (* file round-trip *)
      let path = Filename.temp_file "flight" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let written =
            Flight.write_crashdump ~path ~reason:"unit test" ~seed:99 ()
          in
          check_string "write returns the path" path written;
          let d2 = Flight.load path in
          check_int "file round-trip events" (List.length live)
            (List.length (Flight.dump_events d2)));
      (* a non-dump document must be rejected *)
      check_bool "non-dump rejected" true
        (try
           ignore (Flight.dump_of_json (Telemetry.Json.Obj []));
           false
         with Flight.Bad_dump _ -> true))

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "single domain" `Quick test_single_domain_counts;
          Alcotest.test_case "multi-domain aggregation" `Quick
            test_multi_domain_aggregation;
          Alcotest.test_case "concurrent btree inserts" `Quick
            test_concurrent_btree_inserts_aggregate;
          Alcotest.test_case "reset" `Quick test_reset_clears;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
        ] );
      ( "trace",
        [
          Alcotest.test_case "export parses back" `Quick
            test_trace_export_parses_back;
          Alcotest.test_case "counters json" `Quick test_counters_json_shape;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "quantile monotonicity" `Quick
            test_hist_quantile_monotone;
          Alcotest.test_case "merge equals concat" `Quick
            test_hist_merge_equals_concat;
          Alcotest.test_case "deterministic sampling" `Quick
            test_hist_sampling_deterministic;
          Alcotest.test_case "disabled records nothing" `Quick
            test_hist_disabled_records_nothing;
        ] );
      ( "export",
        [
          Alcotest.test_case "histograms json parses back" `Quick
            test_histograms_json_parses_back;
          Alcotest.test_case "prometheus parses back" `Quick
            test_prometheus_parse_back;
          Alcotest.test_case "prometheus HELP/TYPE complete" `Quick
            test_prometheus_help_type_complete;
          Alcotest.test_case "prometheus hostile escaping" `Quick
            test_prometheus_hostile_escaping;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_flight_disabled_records_nothing;
          Alcotest.test_case "wraparound at capacity" `Quick
            test_flight_wraparound;
          Alcotest.test_case "concurrent per-domain writers" `Quick
            test_flight_multi_domain_writers;
          Alcotest.test_case "dump/reload round-trip" `Quick
            test_flight_dump_roundtrip;
        ] );
    ]
