(* Domain-local telemetry: sharded counters, phase timers, Chrome traces.

   The design constraint comes straight from the paper: the hot paths this
   layer observes (optimistic reads, lease upgrades) derive their scalability
   from performing NO shared stores.  Instrumentation that bumped shared
   atomics would re-introduce exactly the cache-line ping-pong the B-tree is
   built to avoid and would invalidate every measurement taken through it.

   Therefore:
   - every domain owns a private [shard] — a plain mutable record of counts
     and an event buffer — reached through [Domain.DLS];
   - the hot path performs no synchronised operation at all: a counter bump
     is a DLS lookup plus a plain array store;
   - shards are registered once (at first use per domain) in a global,
     mutex-protected registry; aggregation walks the registry only when a
     snapshot or export is requested.  Snapshots of a running system are
     racy-but-defined reads of plain ints, exactly like the paper's own
     statistics;
   - every event site is gated on a plain [bool ref]: with telemetry
     disabled the cost is one load and one branch, so instrumentation can
     stay compiled into the hot loops.

   Timestamps come from CLOCK_MONOTONIC via a C stub ([now_ns]).  The trace
   exporter writes the Chrome trace-event JSON format (the [traceEvents]
   flavour), loadable in Perfetto or chrome://tracing; counters are also
   exported there as "C" samples so contention is visible on the timeline. *)

external now_ns : unit -> int = "repro_telemetry_now_ns" [@@noalloc]

(* ------------------------------------------------------------------ *)
(* JSON (emitter + parser)                                            *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let buffer_add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      buffer_add_escaped buf s;
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        l;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          buffer_add_escaped buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buffer buf j;
    Buffer.contents buf

  let output oc j = output_string oc (to_string j)

  exception Parse_error of string

  (* Recursive-descent parser, sufficient for trace/metrics round-trips in
     tests and the CI smoke check (no external JSON dependency available). *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents buf
          | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
            | 'n' ->
              Buffer.add_char buf '\n';
              go ()
            | 't' ->
              Buffer.add_char buf '\t';
              go ()
            | 'r' ->
              Buffer.add_char buf '\r';
              go ()
            | 'b' ->
              Buffer.add_char buf '\b';
              go ()
            | 'f' ->
              Buffer.add_char buf '\012';
              go ()
            | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* non-ASCII escapes round-trip as '?' — enough for traces,
                 which only contain ASCII names *)
              Buffer.add_char buf (if code < 128 then Char.chr code else '?');
              go ()
            | _ -> fail "bad escape")
          | c ->
            Buffer.add_char buf c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t =
    (* optimistic lock (lib/optlock) *)
    | Olock_read_spins
    | Olock_write_spins
    | Olock_validation_failures
    | Olock_upgrade_failures
    | Olock_write_aborts
    (* concurrent B-tree (lib/btree) *)
    | Btree_restarts
    | Btree_pessimistic_fallbacks
    | Btree_leaf_splits
    | Btree_inner_splits
    | Btree_root_splits
    | Btree_hint_hits
    | Btree_hint_misses
    (* batch write path (sorted-run inserts / structural merge) *)
    | Btree_batch_keys
    | Btree_batch_leaves
    | Btree_batch_splices
    (* domain pool (lib/parallel) *)
    | Pool_jobs
    | Pool_busy_ns
    | Pool_wall_ns
    | Pool_watchdog_trips
    (* semi-naive evaluation (lib/datalog) *)
    | Eval_iterations
    | Eval_rule_evals
    | Eval_delta_tuples
    (* fact IO (lib/datalog Dl_io) *)
    | Io_malformed_lines
    (* query/ingest server (lib/server Dl_server) *)
    | Server_requests
    | Server_busy_rejections
    | Server_phase_flips
    | Server_conns
    | Server_query_examined
    | Server_query_rows
    (* write-ahead log (lib/server Wal) *)
    | Wal_bytes
    | Wal_records
    | Wal_fsyncs
    | Wal_segments
    | Wal_compactions
    | Wal_torn_tails
    | Wal_replayed_records

  let all =
    [
      Olock_read_spins; Olock_write_spins; Olock_validation_failures;
      Olock_upgrade_failures; Olock_write_aborts; Btree_restarts;
      Btree_pessimistic_fallbacks; Btree_leaf_splits; Btree_inner_splits;
      Btree_root_splits; Btree_hint_hits; Btree_hint_misses; Btree_batch_keys;
      Btree_batch_leaves; Btree_batch_splices; Pool_jobs; Pool_busy_ns;
      Pool_wall_ns; Pool_watchdog_trips; Eval_iterations; Eval_rule_evals;
      Eval_delta_tuples; Io_malformed_lines; Server_requests;
      Server_busy_rejections; Server_phase_flips; Server_conns;
      Server_query_examined; Server_query_rows; Wal_bytes;
      Wal_records; Wal_fsyncs; Wal_segments; Wal_compactions; Wal_torn_tails;
      Wal_replayed_records;
    ]

  let index = function
    | Olock_read_spins -> 0
    | Olock_write_spins -> 1
    | Olock_validation_failures -> 2
    | Olock_upgrade_failures -> 3
    | Olock_write_aborts -> 4
    | Btree_restarts -> 5
    | Btree_pessimistic_fallbacks -> 6
    | Btree_leaf_splits -> 7
    | Btree_inner_splits -> 8
    | Btree_root_splits -> 9
    | Btree_hint_hits -> 10
    | Btree_hint_misses -> 11
    | Btree_batch_keys -> 12
    | Btree_batch_leaves -> 13
    | Btree_batch_splices -> 14
    | Pool_jobs -> 15
    | Pool_busy_ns -> 16
    | Pool_wall_ns -> 17
    | Pool_watchdog_trips -> 18
    | Eval_iterations -> 19
    | Eval_rule_evals -> 20
    | Eval_delta_tuples -> 21
    | Io_malformed_lines -> 22
    | Server_requests -> 23
    | Server_busy_rejections -> 24
    | Server_phase_flips -> 25
    | Server_conns -> 26
    | Server_query_examined -> 27
    | Server_query_rows -> 28
    | Wal_bytes -> 29
    | Wal_records -> 30
    | Wal_fsyncs -> 31
    | Wal_segments -> 32
    | Wal_compactions -> 33
    | Wal_torn_tails -> 34
    | Wal_replayed_records -> 35

  let count = List.length all

  let name = function
    | Olock_read_spins -> "olock.read_spins"
    | Olock_write_spins -> "olock.write_spins"
    | Olock_validation_failures -> "olock.validation_failures"
    | Olock_upgrade_failures -> "olock.upgrade_failures"
    | Olock_write_aborts -> "olock.write_aborts"
    | Btree_restarts -> "btree.restarts"
    | Btree_pessimistic_fallbacks -> "btree.pessimistic_fallbacks"
    | Btree_leaf_splits -> "btree.leaf_splits"
    | Btree_inner_splits -> "btree.inner_splits"
    | Btree_root_splits -> "btree.root_splits"
    | Btree_hint_hits -> "btree.hint_hits"
    | Btree_hint_misses -> "btree.hint_misses"
    | Btree_batch_keys -> "btree.batch_keys"
    | Btree_batch_leaves -> "btree.batch_leaves"
    | Btree_batch_splices -> "btree.batch_splices"
    | Pool_jobs -> "pool.jobs"
    | Pool_busy_ns -> "pool.busy_ns"
    | Pool_wall_ns -> "pool.wall_ns"
    | Pool_watchdog_trips -> "pool.watchdog_trips"
    | Eval_iterations -> "eval.iterations"
    | Eval_rule_evals -> "eval.rule_evals"
    | Eval_delta_tuples -> "eval.delta_tuples"
    | Io_malformed_lines -> "io.malformed_lines"
    | Server_requests -> "server.requests"
    | Server_busy_rejections -> "server.busy_rejections"
    | Server_phase_flips -> "server.phase_flips"
    | Server_conns -> "server.conns"
    | Server_query_examined -> "server.query_examined"
    | Server_query_rows -> "server.query_rows"
    | Wal_bytes -> "server.wal.bytes"
    | Wal_records -> "server.wal.records"
    | Wal_fsyncs -> "server.wal.fsyncs"
    | Wal_segments -> "server.wal.segments"
    | Wal_compactions -> "server.wal.compactions"
    | Wal_torn_tails -> "server.wal.torn_tails"
    | Wal_replayed_records -> "server.wal.replayed_records"

  (* Unit metadata: most counters are event counts, but the pool time
     accumulators are nanosecond totals.  Exporters use this to render
     durations instead of raw tick counts. *)
  type unit_kind = Count | Nanoseconds

  let unit_of = function
    | Pool_busy_ns | Pool_wall_ns -> Nanoseconds
    | _ -> Count

  (* One-line help strings for exporters (Prometheus HELP lines). *)
  let help = function
    | Olock_read_spins -> "Backoff rounds spent in start_read waiting out a writer."
    | Olock_write_spins -> "Backoff rounds spent in start_write waiting for the lock."
    | Olock_validation_failures ->
      "Optimistic reads discarded after observing a concurrent write."
    | Olock_upgrade_failures ->
      "Failed read-to-write upgrade CAS attempts (stale lease)."
    | Olock_write_aborts -> "Write permits released without modification."
    | Btree_restarts ->
      "Insertions restarted from the root after a failed validation or upgrade."
    | Btree_pessimistic_fallbacks ->
      "Descents that exhausted the optimistic retry budget and fell back to locking."
    | Btree_leaf_splits -> "Leaf node splits."
    | Btree_inner_splits -> "Inner node splits."
    | Btree_root_splits -> "Splits that grew the tree by one level."
    | Btree_hint_hits -> "Insertions satisfied by the per-thread leaf hint."
    | Btree_hint_misses -> "Hinted insertions that had to descend from the root."
    | Btree_batch_keys -> "Keys offered to the sorted-run batch insert path."
    | Btree_batch_leaves -> "Leaf write-lock acquisitions of the batch path."
    | Btree_batch_splices -> "Bulk gap splices performed by the batch path."
    | Pool_jobs -> "Fork-join jobs executed."
    | Pool_busy_ns -> "Summed per-worker busy time inside jobs."
    | Pool_wall_ns -> "Summed job wall time times worker count."
    | Pool_watchdog_trips -> "Pool jobs whose wall time exceeded the watchdog deadline."
    | Eval_iterations -> "Semi-naive fixed-point rounds."
    | Eval_rule_evals -> "Rule-version evaluations."
    | Eval_delta_tuples -> "Tuples promoted from new into full relations."
    | Io_malformed_lines -> "Corrupt fact lines skipped by the lenient loader."
    | Server_requests -> "Protocol requests admitted by the query server."
    | Server_busy_rejections ->
      "Requests rejected with a BUSY response (backpressure or chaos drill)."
    | Server_phase_flips ->
      "Writer-phase flips (engine generation rebuilds) performed by the server."
    | Server_conns -> "Client connections accepted by the query server."
    | Server_query_examined ->
      "Tuples examined by the query server's QUERY answers."
    | Server_query_rows -> "Rows returned by the query server's QUERY answers."
    | Wal_bytes -> "Bytes appended to the write-ahead log."
    | Wal_records -> "Records appended to the write-ahead log."
    | Wal_fsyncs -> "fsync calls issued by the write-ahead log."
    | Wal_segments -> "Write-ahead log segment files created (incl. rotation)."
    | Wal_compactions ->
      "Snapshot compactions: fact store rewritten as a snapshot segment."
    | Wal_torn_tails ->
      "Torn tails silently truncated during write-ahead log recovery."
    | Wal_replayed_records ->
      "Write-ahead log records replayed during recovery."
end

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                 *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  type t =
    | Btree_insert_ns
    | Btree_find_ns
    | Btree_bound_ns
    | Btree_batch_ns
    | Btree_fallback_ns
    | Olock_write_wait_ns
    | Pool_job_ns
    | Eval_iteration_ns
    | Server_ingest_ns
    | Server_query_ns
    | Server_flip_ns
    | Wal_append_ns
    | Wal_fsync_ns

  let all =
    [
      Btree_insert_ns; Btree_find_ns; Btree_bound_ns; Btree_batch_ns;
      Btree_fallback_ns; Olock_write_wait_ns; Pool_job_ns; Eval_iteration_ns;
      Server_ingest_ns; Server_query_ns; Server_flip_ns; Wal_append_ns;
      Wal_fsync_ns;
    ]

  let index = function
    | Btree_insert_ns -> 0
    | Btree_find_ns -> 1
    | Btree_bound_ns -> 2
    | Btree_batch_ns -> 3
    | Btree_fallback_ns -> 4
    | Olock_write_wait_ns -> 5
    | Pool_job_ns -> 6
    | Eval_iteration_ns -> 7
    | Server_ingest_ns -> 8
    | Server_query_ns -> 9
    | Server_flip_ns -> 10
    | Wal_append_ns -> 11
    | Wal_fsync_ns -> 12

  let count = List.length all

  let name = function
    | Btree_insert_ns -> "btree.insert_ns"
    | Btree_find_ns -> "btree.find_ns"
    | Btree_bound_ns -> "btree.lower_bound_ns"
    | Btree_batch_ns -> "btree.batch_ns"
    | Btree_fallback_ns -> "btree.fallback_ns"
    | Olock_write_wait_ns -> "olock.write_wait_ns"
    | Pool_job_ns -> "pool.job_ns"
    | Eval_iteration_ns -> "eval.iteration_ns"
    | Server_ingest_ns -> "server.ingest_ns"
    | Server_query_ns -> "server.query_ns"
    | Server_flip_ns -> "server.flip_ns"
    | Wal_append_ns -> "server.wal.append_ns"
    | Wal_fsync_ns -> "server.wal.fsync_ns"

  let help = function
    | Btree_insert_ns -> "Sampled B-tree insert latency (ns)."
    | Btree_find_ns -> "Sampled B-tree find/mem latency (ns)."
    | Btree_bound_ns -> "Sampled B-tree lower/upper bound latency (ns)."
    | Btree_batch_ns -> "Batch insert call latency, one event per sorted run (ns)."
    | Btree_fallback_ns -> "Pessimistic fallback descent latency (ns)."
    | Olock_write_wait_ns ->
      "Contended write acquisitions: first failed CAS to acquisition (ns)."
    | Pool_job_ns -> "Fork-join job wall time (ns)."
    | Eval_iteration_ns -> "Semi-naive fixed-point round wall time (ns)."
    | Server_ingest_ns ->
      "Ingest service latency: admission to the end of the applying writer \
       phase (ns)."
    | Server_query_ns -> "Query service latency: admission to response (ns)."
    | Server_flip_ns ->
      "Writer-phase flip duration (engine generation rebuild, ns)."
    | Wal_append_ns -> "Write-ahead log record append latency (ns)."
    | Wal_fsync_ns -> "Write-ahead log fsync latency (ns)."

  (* Per-op B-tree sites fire millions of times per second, so they are
     sampled 1-in-2^shift (the clock_gettime pair would otherwise dominate
     the operation it measures).  The coarse sites record every event:
     olock write waits are contention (rare by construction), pool jobs and
     eval iterations are milliseconds apart. *)
  (* Batch calls are coarse by construction (one per sorted run or merge
     partition), so they record every event like the other coarse sites. *)
  (* Pessimistic fallbacks are cold by construction (a fallback means the
     optimistic retry budget ran dry), so every one is recorded. *)
  (* Server request sites are coarse too: one event per protocol request or
     phase flip, paced by socket IO — far below the per-op B-tree rates. *)
  let sample_shift = function
    | Btree_insert_ns | Btree_find_ns | Btree_bound_ns -> 6
    | Btree_batch_ns | Btree_fallback_ns | Olock_write_wait_ns | Pool_job_ns
    | Eval_iteration_ns | Server_ingest_ns | Server_query_ns | Server_flip_ns
    | Wal_append_ns | Wal_fsync_ns ->
      0

  (* Log-linear (HDR-style) bucketing: values below [2^sub_bits] get exact
     buckets; above, each power-of-two octave is divided into [2^sub_bits]
     equal sub-buckets, bounding the relative quantile error by
     2^-sub_bits.  400 buckets cover [0, 2^52) ns — over a month. *)
  let sub_bits = 3
  let sub_buckets = 1 lsl sub_bits
  let bucket_count = 400

  let bucket_of_value v =
    let v = if v < 0 then 0 else v in
    if v < sub_buckets then v
    else begin
      (* position of the highest set bit of [v]; >= sub_bits here *)
      let o = ref sub_bits and x = ref (v lsr sub_bits) in
      while !x > 1 do
        x := !x lsr 1;
        incr o
      done;
      let b =
        ((!o - sub_bits + 1) lsl sub_bits) + (v lsr (!o - sub_bits)) - sub_buckets
      in
      if b >= bucket_count then bucket_count - 1 else b
    end

  (* [lo, hi) of a bucket; inverse of [bucket_of_value] (the top bucket also
     absorbs every clamped value above its nominal range). *)
  let bucket_bounds b =
    if b < sub_buckets then (b, b + 1)
    else begin
      let o = (b lsr sub_bits) + sub_bits - 1 in
      let width = 1 lsl (o - sub_bits) in
      let lo = (sub_buckets + (b land (sub_buckets - 1))) * width in
      (lo, lo + width)
    end
end

(* ------------------------------------------------------------------ *)
(* Trace events                                                       *)
(* ------------------------------------------------------------------ *)

type arg_value = A_int of int | A_float of float | A_string of string

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char; (* 'X' complete, 'i' instant, 'C' counter sample *)
  ev_ts : int; (* ns, monotonic *)
  ev_dur : int; (* ns; 0 unless 'X' *)
  ev_tid : int; (* trace lane; domain id unless overridden *)
  ev_args : (string * arg_value) list;
}

(* ------------------------------------------------------------------ *)
(* Domain-local shards                                                *)
(* ------------------------------------------------------------------ *)

type shard = {
  sh_domain : int;
  counts : int array; (* plain mutable: single-writer, racy readers *)
  hist_counts : int array; (* flat [Hist.count * Hist.bucket_count] *)
  hist_sum : int array; (* per-histogram ns totals *)
  hist_max : int array; (* per-histogram exact maxima *)
  hist_n : int array; (* per-histogram sample counts *)
  mutable sh_rng : int; (* xorshift state for the sampling decision *)
  mutable events : event array; (* grow-only buffer, [sh_nev] used *)
  mutable sh_nev : int;
}

(* Deterministic per-shard sampling: a private xorshift stream seeded from a
   global seed mixed with the domain id, so a fixed seed reproduces the same
   sample set run-to-run (single-domain) and shards never share state. *)
let hist_seed = ref 0x7FB5D329

let mix_seed seed d =
  let z = (seed + ((d + 1) * 0x9E3779B9)) land max_int in
  let z = z lxor (z lsr 16) in
  let z = z * 0x85EBCA6B land max_int in
  let z = z lxor (z lsr 13) in
  let z = z * 0xC2B2AE35 land max_int in
  let z = z lxor (z lsr 16) in
  if z = 0 then 0x2545F491 else z

let rng_next sh =
  let r = sh.sh_rng in
  let r = r lxor (r lsl 13) land max_int in
  let r = r lxor (r lsr 7) in
  let r = r lxor (r lsl 17) land max_int in
  let r = if r = 0 then 0x2545F491 else r in
  sh.sh_rng <- r;
  r

let dummy_event =
  { ev_name = ""; ev_cat = ""; ev_ph = 'i'; ev_ts = 0; ev_dur = 0; ev_tid = 0; ev_args = [] }

(* The registry is append-only: shards of terminated domains stay listed so
   their counts survive into snapshots taken after a pool shuts down. *)
let registry : shard list ref = ref []
let registry_mutex = Mutex.create ()

let shard_key =
  Domain.DLS.new_key (fun () ->
      let d = (Domain.self () :> int) in
      let sh =
        {
          sh_domain = d;
          counts = Array.make Counter.count 0;
          hist_counts = Array.make (Hist.count * Hist.bucket_count) 0;
          hist_sum = Array.make Hist.count 0;
          hist_max = Array.make Hist.count 0;
          hist_n = Array.make Hist.count 0;
          sh_rng = mix_seed !hist_seed d;
          events = Array.make 64 dummy_event;
          sh_nev = 0;
        }
      in
      Mutex.protect registry_mutex (fun () -> registry := sh :: !registry);
      sh)

let set_hist_seed s =
  hist_seed := s;
  Mutex.protect registry_mutex (fun () ->
      List.iter (fun sh -> sh.sh_rng <- mix_seed s sh.sh_domain) !registry)

(* Master switches.  Plain refs: they are flipped only from quiescent code
   (before/after parallel sections); racy readers seeing a stale value skip
   or record a handful of events, which is harmless. *)
let counters_on = ref false
let tracing_on = ref false

let enabled () = !counters_on
let tracing () = !tracing_on

let enable ?(tracing = false) () =
  counters_on := true;
  if tracing then tracing_on := true

let disable () =
  counters_on := false;
  tracing_on := false

let reset () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun sh ->
          Array.fill sh.counts 0 Counter.count 0;
          Array.fill sh.hist_counts 0 (Array.length sh.hist_counts) 0;
          Array.fill sh.hist_sum 0 Hist.count 0;
          Array.fill sh.hist_max 0 Hist.count 0;
          Array.fill sh.hist_n 0 Hist.count 0;
          (* reseed so a fixed seed makes sampling reproducible post-reset *)
          sh.sh_rng <- mix_seed !hist_seed sh.sh_domain;
          sh.sh_nev <- 0)
        !registry)

(* The per-event fast path: one load + branch when disabled. *)
let bump c =
  if !counters_on then begin
    let sh = Domain.DLS.get shard_key in
    let i = Counter.index c in
    Array.unsafe_set sh.counts i (Array.unsafe_get sh.counts i + 1)
  end

let add c n =
  if !counters_on then begin
    let sh = Domain.DLS.get shard_key in
    let i = Counter.index c in
    Array.unsafe_set sh.counts i (Array.unsafe_get sh.counts i + n)
  end

(* Histogram recording.  [hist_start] makes the sampling decision (behind the
   master flag: disabled cost is one load + one branch, returning 0);
   [hist_end] is a no-op unless the matching start actually sampled. *)

let hist_record m d =
  if !counters_on then begin
    let sh = Domain.DLS.get shard_key in
    let d = if d < 0 then 0 else d in
    let i = Hist.index m in
    let b = (i * Hist.bucket_count) + Hist.bucket_of_value d in
    Array.unsafe_set sh.hist_counts b (Array.unsafe_get sh.hist_counts b + 1);
    sh.hist_sum.(i) <- sh.hist_sum.(i) + d;
    if d > sh.hist_max.(i) then sh.hist_max.(i) <- d;
    sh.hist_n.(i) <- sh.hist_n.(i) + 1
  end

let hist_start m =
  if not !counters_on then 0
  else begin
    let shift = Hist.sample_shift m in
    if shift = 0 then now_ns ()
    else begin
      let sh = Domain.DLS.get shard_key in
      if rng_next sh land ((1 lsl shift) - 1) = 0 then now_ns () else 0
    end
  end

let hist_end m t0 = if t0 > 0 then hist_record m (now_ns () - t0)
let hist_time () = if !counters_on then now_ns () else 0

let record ev =
  let sh = Domain.DLS.get shard_key in
  let cap = Array.length sh.events in
  if sh.sh_nev = cap then begin
    let bigger = Array.make (cap * 2) dummy_event in
    Array.blit sh.events 0 bigger 0 cap;
    sh.events <- bigger
  end;
  sh.events.(sh.sh_nev) <- ev;
  sh.sh_nev <- sh.sh_nev + 1

let emit ?(tid = -1) ?(args = []) ?(cat = "app") ~ph ~ts ~dur name =
  if !tracing_on then
    let sh = Domain.DLS.get shard_key in
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = ph;
        ev_ts = ts;
        ev_dur = dur;
        ev_tid = (if tid >= 0 then tid else sh.sh_domain);
        ev_args = args;
      }

let span_start () = if !tracing_on then now_ns () else 0

let span_end ?tid ?args ?cat name t0 =
  if !tracing_on && t0 > 0 then
    let t1 = now_ns () in
    emit ?tid ?args ?cat ~ph:'X' ~ts:t0 ~dur:(t1 - t0) name

let with_span ?tid ?args ?cat name f =
  if not !tracing_on then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | r ->
      span_end ?tid ?args ?cat name t0;
      r
    | exception e ->
      span_end ?tid ?args ?cat name t0;
      raise e
  end

let instant ?tid ?args ?cat name =
  if !tracing_on then emit ?tid ?args ?cat ~ph:'i' ~ts:(now_ns ()) ~dur:0 name

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

type hist = {
  h_counts : int array; (* [Hist.bucket_count], merged over shards *)
  h_total : int;
  h_sum : int; (* ns *)
  h_max : int; (* exact, not bucketed *)
}

type snapshot = {
  per_domain : (int * int array) list; (* domain id, per-counter counts *)
  totals : int array;
  hists : hist array; (* indexed by [Hist.index] *)
}

let snapshot () =
  let shards = Mutex.protect registry_mutex (fun () -> !registry) in
  let totals = Array.make Counter.count 0 in
  let per_domain =
    List.rev_map
      (fun sh ->
        let copy = Array.map (fun c -> c) sh.counts in
        Array.iteri (fun i c -> totals.(i) <- totals.(i) + c) copy;
        (sh.sh_domain, copy))
      shards
  in
  (* drop all-zero shards (e.g. long-dead domains after a reset) and order
     by domain id for stable output *)
  let per_domain =
    List.filter (fun (_, c) -> Array.exists (fun x -> x <> 0) c) per_domain
  in
  let per_domain = List.sort (fun (a, _) (b, _) -> compare a b) per_domain in
  (* merge histogram shards (all shards, including count-silent ones) *)
  let hb = Array.make (Hist.count * Hist.bucket_count) 0 in
  let hsum = Array.make Hist.count 0 in
  let hmax = Array.make Hist.count 0 in
  let hn = Array.make Hist.count 0 in
  List.iter
    (fun sh ->
      for i = 0 to Array.length hb - 1 do
        hb.(i) <- hb.(i) + sh.hist_counts.(i)
      done;
      for i = 0 to Hist.count - 1 do
        hsum.(i) <- hsum.(i) + sh.hist_sum.(i);
        if sh.hist_max.(i) > hmax.(i) then hmax.(i) <- sh.hist_max.(i);
        hn.(i) <- hn.(i) + sh.hist_n.(i)
      done)
    shards;
  let hists =
    Array.init Hist.count (fun i ->
        {
          h_counts = Array.sub hb (i * Hist.bucket_count) Hist.bucket_count;
          h_total = hn.(i);
          h_sum = hsum.(i);
          h_max = hmax.(i);
        })
  in
  { per_domain; totals; hists }

let get s c = s.totals.(Counter.index c)

let hint_hit_rate s =
  let h = get s Counter.Btree_hint_hits and m = get s Counter.Btree_hint_misses in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let hist_of s m = s.hists.(Hist.index m)

(* Quantile estimate: midpoint of the bucket holding the rank-q sample,
   clamped to the exact tracked maximum (keeps p99 <= max even when the max
   sits low inside its bucket). *)
let hist_quantile h q =
  if h.h_total = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_total)) in
      if r < 1 then 1 else r
    in
    let rec go b acc =
      if b >= Hist.bucket_count then h.h_max
      else begin
        let acc = acc + h.h_counts.(b) in
        if acc >= rank then begin
          let lo, hi = Hist.bucket_bounds b in
          let mid = (lo + hi - 1) / 2 in
          if mid > h.h_max then h.h_max else mid
        end
        else go (b + 1) acc
      end
    in
    go 0 0
  end

let hist_mean h =
  if h.h_total = 0 then 0.0
  else float_of_int h.h_sum /. float_of_int h.h_total

let imbalance s =
  (* ratio of summed worker busy time to summed job wall time x workers is
     job-dependent; report busy/wall, a utilisation proxy: 1.0 = perfectly
     balanced pool, lower = idle workers *)
  let busy = get s Counter.Pool_busy_ns and wall = get s Counter.Pool_wall_ns in
  if wall = 0 then 1.0 else float_of_int busy /. float_of_int wall

(* Human-readable duration for ns-valued counters and quantiles. *)
let ns_string ns =
  let f = float_of_int ns in
  if ns >= 1_000_000_000 then Printf.sprintf "%.3fs" (f /. 1e9)
  else if ns >= 1_000_000 then Printf.sprintf "%.3fms" (f /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.3fus" (f /. 1e3)
  else Printf.sprintf "%dns" ns

(* "pool.busy_ns" -> "pool.busy" (value rendered as a duration instead). *)
let chop_ns_suffix n =
  if String.length n > 3 && String.sub n (String.length n - 3) 3 = "_ns" then
    String.sub n 0 (String.length n - 3)
  else n

let pp_snapshot fmt s =
  let pr fmt_str = Format.fprintf fmt fmt_str in
  pr "@[<v>telemetry (aggregated over %d domain%s):@,"
    (List.length s.per_domain)
    (if List.length s.per_domain = 1 then "" else "s");
  List.iter
    (fun c ->
      let v = get s c in
      if v <> 0 then
        match Counter.unit_of c with
        | Counter.Count -> pr "  %-28s %d@," (Counter.name c) v
        | Counter.Nanoseconds ->
          pr "  %-28s %s@," (chop_ns_suffix (Counter.name c)) (ns_string v))
    Counter.all;
  pr "  %-28s %.1f%%@," "btree.hint_hit_rate" (100.0 *. hint_hit_rate s);
  pr "  %-28s %.2f@," "pool.utilisation" (imbalance s);
  if List.exists (fun m -> (hist_of s m).h_total > 0) Hist.all then begin
    pr "latency (sampled):@,";
    List.iter
      (fun m ->
        let h = hist_of s m in
        if h.h_total > 0 then
          pr "  %-28s n=%-8d p50=%-9s p90=%-9s p99=%-9s max=%s@," (Hist.name m)
            h.h_total
            (ns_string (hist_quantile h 0.5))
            (ns_string (hist_quantile h 0.9))
            (ns_string (hist_quantile h 0.99))
            (ns_string h.h_max))
      Hist.all
  end;
  (* a single-domain breakdown repeats the aggregate line for line — skip it *)
  if List.length s.per_domain > 1 then begin
    pr "per-domain breakdown (aborts / restarts / splits / hint hits+misses):@,";
    List.iter
      (fun (d, counts) ->
        let g c = counts.(Counter.index c) in
        pr
          "  domain %-3d  val_fail=%d upg_fail=%d wr_abort=%d restarts=%d \
           splits=%d/%d/%d hints=%d+%d@,"
          d
          (g Counter.Olock_validation_failures)
          (g Counter.Olock_upgrade_failures)
          (g Counter.Olock_write_aborts)
          (g Counter.Btree_restarts)
          (g Counter.Btree_leaf_splits)
          (g Counter.Btree_inner_splits)
          (g Counter.Btree_root_splits)
          (g Counter.Btree_hint_hits)
          (g Counter.Btree_hint_misses))
      s.per_domain
  end;
  pr "@]"

let counters_json s =
  Json.Obj
    (List.map
       (fun c ->
         let v = get s c in
         match Counter.unit_of c with
         | Counter.Count -> (Counter.name c, Json.Int v)
         | Counter.Nanoseconds ->
           (* export as seconds under an "_s" name, e.g. "pool.busy_s" *)
           (chop_ns_suffix (Counter.name c) ^ "_s", Json.Float (float_of_int v /. 1e9)))
       Counter.all
    @ [
        ("btree.hint_hit_rate", Json.Float (hint_hit_rate s));
        ("pool.utilisation", Json.Float (imbalance s));
      ])

let histograms_json s =
  Json.Obj
    (List.filter_map
       (fun m ->
         let h = hist_of s m in
         if h.h_total = 0 then None
         else begin
           let buckets = ref [] in
           for b = Hist.bucket_count - 1 downto 0 do
             let c = h.h_counts.(b) in
             if c > 0 then begin
               let lo, hi = Hist.bucket_bounds b in
               buckets := Json.List [ Json.Int lo; Json.Int hi; Json.Int c ] :: !buckets
             end
           done;
           Some
             ( Hist.name m,
               Json.Obj
                 [
                   ("count", Json.Int h.h_total);
                   ("sample_period", Json.Int (1 lsl Hist.sample_shift m));
                   ("sum_ns", Json.Int h.h_sum);
                   ("mean_ns", Json.Float (hist_mean h));
                   ("p50_ns", Json.Int (hist_quantile h 0.5));
                   ("p90_ns", Json.Int (hist_quantile h 0.9));
                   ("p99_ns", Json.Int (hist_quantile h 0.99));
                   ("max_ns", Json.Int h.h_max);
                   (* nonzero buckets only, as [lo, hi, count] triples *)
                   ("buckets", Json.List !buckets);
                 ] )
         end)
       Hist.all)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)
(* ------------------------------------------------------------------ *)

module Prom = struct
  type t = { buf : Buffer.t; seen : (string, unit) Hashtbl.t }

  let create () = { buf = Buffer.create 1024; seen = Hashtbl.create 32 }

  let sanitize name =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name

  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.9g" v
    else if v > 0.0 then "+Inf"
    else if v < 0.0 then "-Inf"
    else "NaN"

  (* Exposition-format escaping (not OCaml %S escaping, which differs on
     tabs and non-printables): HELP text escapes backslash and newline;
     label values additionally escape the double quote. *)
  let escape ~quote s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '"' when quote -> Buffer.add_string b "\\\""
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let escape_help = escape ~quote:false
  let escape_label_value = escape ~quote:true

  (* HELP/TYPE are emitted once per metric family, on first use. *)
  let header t ?help name typ =
    if not (Hashtbl.mem t.seen name) then begin
      Hashtbl.add t.seen name ();
      (match help with
      | Some h ->
        Buffer.add_string t.buf
          (Printf.sprintf "# HELP %s %s\n" name (escape_help h))
      | None -> ());
      Buffer.add_string t.buf (Printf.sprintf "# TYPE %s %s\n" name typ)
    end

  let labels_string = function
    | [] -> ""
    | l ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             l)
      ^ "}"

  let line t name labels v =
    Buffer.add_string t.buf (name ^ labels_string labels ^ " " ^ number v ^ "\n")

  let metric t ?help ~typ ?(labels = []) name v =
    let name = sanitize name in
    header t ?help name typ;
    line t name labels v

  let counter t ?help ?labels name v = metric t ?help ~typ:"counter" ?labels name v
  let gauge t ?help ?labels name v = metric t ?help ~typ:"gauge" ?labels name v
  let to_string t = Buffer.contents t.buf
end

let prometheus_of_snapshot ?(prefix = "repro") prom s =
  let base n = prefix ^ "_" ^ Prom.sanitize n in
  List.iter
    (fun c ->
      let v = get s c in
      let help = Counter.help c in
      match Counter.unit_of c with
      | Counter.Count ->
        Prom.counter prom ~help (base (Counter.name c) ^ "_total") (float_of_int v)
      | Counter.Nanoseconds ->
        Prom.counter prom ~help
          (base (chop_ns_suffix (Counter.name c)) ^ "_seconds_total")
          (float_of_int v /. 1e9))
    Counter.all;
  Prom.gauge prom
    ~help:"Hint hits over hinted B-tree operations (hits / (hits + misses))."
    (base "btree.hint_hit_rate") (hint_hit_rate s);
  Prom.gauge prom
    ~help:"Summed worker busy time over summed job wall time (1.0 = balanced)."
    (base "pool.utilisation") (imbalance s);
  List.iter
    (fun m ->
      let h = hist_of s m in
      if h.h_total > 0 then begin
        let name = base (Hist.name m) in
        Prom.header prom ~help:(Hist.help m) name "histogram";
        (* cumulative counts at the inclusive upper bound of each nonzero
           bucket (values are integral ns, so le = hi - 1) *)
        let acc = ref 0 in
        for b = 0 to Hist.bucket_count - 1 do
          let c = h.h_counts.(b) in
          if c > 0 then begin
            acc := !acc + c;
            let _, hi = Hist.bucket_bounds b in
            Prom.line prom (name ^ "_bucket")
              [ ("le", string_of_int (hi - 1)) ]
              (float_of_int !acc)
          end
        done;
        Prom.line prom (name ^ "_bucket") [ ("le", "+Inf") ] (float_of_int h.h_total);
        Prom.line prom (name ^ "_sum") [] (float_of_int h.h_sum);
        Prom.line prom (name ^ "_count") [] (float_of_int h.h_total);
        let q p =
          Prom.gauge prom
            ~help:(Hist.help m ^ " " ^ p ^ " quantile estimate.")
            (name ^ "_" ^ p)
        in
        q "p50" (float_of_int (hist_quantile h 0.5));
        q "p90" (float_of_int (hist_quantile h 0.9));
        q "p99" (float_of_int (hist_quantile h 0.99));
        Prom.gauge prom
          ~help:(Hist.help m ^ " Exact maximum.")
          (name ^ "_max")
          (float_of_int h.h_max)
      end)
    Hist.all

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                *)
(* ------------------------------------------------------------------ *)

let ph_string = function
  | 'X' -> "X"
  | 'i' -> "i"
  | 'C' -> "C"
  | c -> String.make 1 c

let arg_json = function
  | A_int i -> Json.Int i
  | A_float f -> Json.Float f
  | A_string s -> Json.String s

(* Chrome traces use microsecond floats; ns-precision survives as decimals. *)
let us_of_ns ns = float_of_int ns /. 1000.0

let event_json ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ph", Json.String (ph_string ev.ev_ph));
      ("ts", Json.Float (us_of_ns ev.ev_ts));
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let dur = if ev.ev_ph = 'X' then [ ("dur", Json.Float (us_of_ns ev.ev_dur)) ] else [] in
  let args =
    match (ev.ev_ph, ev.ev_args) with
    | _, [] -> []
    | _, l -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) l)) ]
  in
  let scope = if ev.ev_ph = 'i' then [ ("s", Json.String "t") ] else [] in
  Json.Obj (base @ dur @ args @ scope)

(* External trace providers (e.g. the flight recorder) contribute extra
   ready-made trace-event objects at export time, so subsystems layered on
   top of telemetry can ride in the same Chrome trace without telemetry
   depending on them. *)
let trace_providers : (unit -> Json.t list) list ref = ref []
let register_trace_provider f = trace_providers := f :: !trace_providers

let trace_json ?(process_name = "datalog") () =
  let shards = Mutex.protect registry_mutex (fun () -> !registry) in
  let events =
    List.concat_map
      (fun sh -> List.init sh.sh_nev (fun i -> sh.events.(i)))
      shards
  in
  let events = List.sort (fun a b -> compare a.ev_ts b.ev_ts) events in
  (* final counter samples so the trace carries the aggregate numbers even
     when no 'C' samples were emitted during the run *)
  let s = snapshot () in
  let tail_ts =
    match List.rev events with e :: _ -> e.ev_ts + e.ev_dur | [] -> now_ns ()
  in
  let counter_events =
    List.filter_map
      (fun c ->
        let v = get s c in
        if v = 0 then None
        else
          Some
            {
              ev_name = Counter.name c;
              ev_cat = "counters";
              ev_ph = 'C';
              ev_ts = tail_ts;
              ev_dur = 0;
              ev_tid = 0;
              ev_args = [ (Counter.name c, A_int v) ];
            })
      Counter.all
  in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("ts", Json.Float 0.0);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String process_name) ]);
      ]
  in
  let provider_events = List.concat_map (fun f -> f ()) !trace_providers in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((meta :: List.map event_json (events @ counter_events))
          @ provider_events) );
      ("displayTimeUnit", Json.String "ms");
      ("otherData", counters_json s);
    ]

let export_trace ?process_name path =
  let j = trace_json ?process_name () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.output oc j;
      output_char oc '\n')

let event_count () =
  let shards = Mutex.protect registry_mutex (fun () -> !registry) in
  List.fold_left (fun acc sh -> acc + sh.sh_nev) 0 shards
