(* One benchmark run of one workload against a datalog_serve child.

   An untraced pass measures the end-to-end metrics.  With tracing, a
   second pass on the same seed starts the server with its telemetry
   endpoint, and the per-layer ledger is built from that pass's server
   surfaces plus in-process replays of its inputs; the difference of the
   two passes is the tracing overhead. *)

type env = {
  exe : string; (* datalog_serve binary *)
  tmp : string; (* parent of every per-server temp directory *)
  seed : int;
  seconds : float;
  log : string -> unit;
}

let now = Child.now
let ms s = s *. 1e3

(* A child server with its protocol connection and the directory that
   survives restarts. *)
type server = { child : Child.t; conn : Dl_client.t }

exception Bad of string

let expect_ok what = function
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, msg)) -> raise (Bad (Printf.sprintf "%s: ERR %s %s" what code msg))
  | Ok (Dl_client.Data _) -> raise (Bad (what ^ ": unexpected DATA reply"))
  | Error m -> raise (Bad (what ^ ": " ^ m))

let expect_rows what = function
  | Ok (Dl_client.Data (_, rows)) -> rows
  | Ok (Dl_client.Err (code, msg)) -> raise (Bad (Printf.sprintf "%s: ERR %s %s" what code msg))
  | Ok (Dl_client.Ok_ _) -> raise (Bad (what ^ ": unexpected OK reply"))
  | Error m -> raise (Bad (what ^ ": " ^ m))

let start env cfg ~traced dir =
  let child, conn =
    Child.start ~exe:env.exe ~dir ~traced ~threads:cfg.Workload.threads
      cfg.Workload.server_flags
  in
  { child; conn }

let stop s = Child.shutdown s.child s.conn

(* Restart a server on the data dir left in [dir] and send [line]: the
   server, the seconds from spawn to that answer, and its rows. *)
let recover env cfg ~traced dir line =
  let t0 = now () in
  let r = start env cfg ~traced dir in
  let rows = expect_rows "recovery query" (Dl_client.request r.conn line) in
  (r, now () -. t0, rows)

(* Per-run tallies of checked operations beyond the measured traffic
   (installs, full-relation checks, recovery checks). *)
type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let checked t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.why <- what :: t.why
  end

let out_rel = function
  | Workload.Point_query -> "reach"
  | Workload.Ingest_query -> "vpt"
  | Workload.Bulk_load -> "byv"

let full_query rel arity =
  Printf.sprintf "QUERY %s %s" rel (String.concat " " (List.init arity (fun _ -> "_")))

(* Install program and base facts over the protocol, then answer the
   first full query; returns its rows. *)
let install s (db : Workload.db) cfg =
  expect_ok "RULES" (Dl_client.rules s.conn db.Workload.source);
  let acks = ref [] in
  List.iter
    (fun (rel, lines) ->
      let t0 = now () in
      expect_ok ("LOAD " ^ rel) (Dl_client.load s.conn rel lines);
      acks := ms (now () -. t0) :: !acks)
    (Workload.batches cfg.Workload.batch_rows db.Workload.facts);
  let rel = out_rel cfg.Workload.kind in
  let arity =
    (List.find (fun d -> d.Ast.name = rel) db.Workload.program.Ast.decls).Ast.arity
  in
  let rows = expect_rows "first query" (Dl_client.request s.conn (full_query rel arity)) in
  (rows, List.rev !acks)

(* ------------------------------------------------------------------ *)
(* Pass results                                                         *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float array;
  recovery_s : float array;
  latency_ms : float array; (* timed class, warm, good replies only *)
  throughput : float;
  rss_mb : float;
  late_ms : float array; (* generator lateness of every closed-loop send *)
  attempted : int;
  failed : int;
  why : string list;
  (* ledger inputs, filled on the traced pass *)
  series : (string * float) list; (* telemetry scrape of the loaded server *)
  query_hist : Telemetry.hist; (* server.query_ns of the client-timed queries *)
  stats : (string * string) list;
  query_sent_ms : float array; (* client latency from send of those queries *)
  ack_ms : float array; (* client ingest ack latency from send *)
  final_db : Workload.db; (* base facts plus acked ingest *)
  query_lines : string list;
  ingest_reqs : (string * string list) list; (* request line, payload *)
  rows_admitted : int;
  dir_bytes : int;
}

(* The tail percentile of the end-to-end metrics.  A run holds a few
   hundred timed requests on ingest_query and bulk_load, so a p99 would
   rest on a handful of them and swing by more than any usable bound;
   p90 rests on a few dozen.  The pooled highest percentile is reported
   beside it in the ledger as client.top_ms. *)
let tail_pct = 90

let e2e p =
  [
    ("setup_s", Stats.median p.setup_s, "s");
    ("p50_ms", Stats.median p.latency_ms, "ms");
    ("tail_ms", Stats.percentile p.latency_ms tail_pct, "ms");
    ("throughput_per_s", p.throughput, "1/s");
    ("recovery_s", Stats.median p.recovery_s, "s");
    ("server_rss_mb", p.rss_mb, "MiB");
  ]

let count_rows facts = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 facts

(* Every n-th element of [l], at most [k] of them. *)
let sample k l =
  let n = List.length l in
  if n <= k then l
  else
    let step = (n + k - 1) / k in
    List.filteri (fun i _ -> i mod step = 0) l

(* ------------------------------------------------------------------ *)
(* Closed-loop query workloads: point_query, ingest_query               *)
(* ------------------------------------------------------------------ *)

(* A query workload runs in [repeats] epochs of equal length, so that
   its set-ups and restarts are spread over the run like its traffic.
   Each epoch sets up a fresh server, drives closed-loop traffic,
   checks the final full answer, and restarts the server on its data
   dir (recovery), checking that answer again.  The ledger inputs come
   from the last epoch. *)
let query_loop env cfg ~traced =
  let rng = Rng.create env.seed in
  let db = Workload.base_db cfg in
  let oracle = Workload.evaluate db in
  let next_round = Workload.rounds cfg oracle (Rng.split rng) in
  let rel = out_rel cfg.Workload.kind in
  let arity = Relation.arity (Engine.relation oracle rel) in
  let base_key = Workload.full_with oracle rel [] in
  let tally = { attempted = 0; failed = 0; why = [] } in
  let dir = Filename.concat env.tmp (Workload.name cfg.Workload.kind) in
  let nconns = if cfg.Workload.kind = Workload.Ingest_query then 2 else 1 in
  let epochs = cfg.Workload.repeats in
  let epoch_s = env.seconds /. float_of_int epochs in
  let setup_s = ref [] and recovery_s = ref [] and rss = ref [] and all = ref [] in
  let last = ref None in
  for _ = 1 to epochs do
    Child.rm_rf dir;
    let t0 = now () in
    let s = start env cfg ~traced dir in
    let rows, base_acks = install s db cfg in
    setup_s := (now () -. t0) :: !setup_s;
    checked tally "first query" (Workload.answer_key rows = base_key);
    (* at most two connections during the traffic: the generator's *)
    Dl_client.close s.conn;
    let query_ns () =
      if traced then Ledger.prom_hist (Ledger.scrape s.child) "server.query_ns"
      else Ledger.empty_hist
    in
    let before = query_ns () in
    let outcomes =
      Wire.closed_loop ~path:s.child.Child.sock ~nconns ~seconds:epoch_s next_round
    in
    let query_hist = Ledger.hist_diff (query_ns ()) before in
    let s =
      match Dl_client.connect (Child.addr s.child) with
      | Ok conn -> { s with conn }
      | Error m -> raise (Bad ("reconnect: " ^ m))
    in
    let acked =
      List.filter_map
        (fun (o : Wire.outcome) ->
          if o.Wire.req.Workload.conn = 1 && o.Wire.verdict = Wire.Good then
            Some o.Wire.req.Workload.line
          else None)
        (Array.to_list outcomes)
    in
    (* the final full answer must equal the base plus the acked ingest *)
    let final_key = Workload.full_with oracle rel acked in
    checked tally "final full query"
      (Workload.answer_key
         (expect_rows "final query" (Dl_client.request s.conn (full_query rel arity)))
      = final_key);
    let series = if traced then Ledger.scrape s.child else [] in
    let stats = if traced then Ledger.stats_of (Dl_client.stats s.conn) else [] in
    rss := Child.vm_hwm_mb s.child :: !rss;
    stop s;
    (* recovery, several times: restart on the data dir through the
       first full query, which must still equal the acked state *)
    for _ = 1 to cfg.Workload.restarts do
      let r, dt, rows = recover env cfg ~traced:false dir (full_query rel arity) in
      recovery_s := dt :: !recovery_s;
      checked tally "recovered full query" (Workload.answer_key rows = final_key);
      stop r
    done;
    let dir_bytes = Child.dir_bytes (Child.data_dir s.child) in
    Child.rm_rf dir;
    env.log
      (Printf.sprintf "epoch: set-up %.3f s, timed p50 %.2f ms over %d requests"
         (List.hd !setup_s)
         (Stats.median
            (Array.of_list
               (List.filter_map
                  (fun (o : Wire.outcome) ->
                    if o.Wire.req.Workload.timed then Some (ms (o.Wire.finished -. o.Wire.sent))
                    else None)
                  (Array.to_list outcomes))))
         (Array.length outcomes));
    all := outcomes :: !all;
    last := Some (outcomes, acked, base_acks, query_hist, series, stats, dir_bytes)
  done;
  let outcomes, acked, base_acks, query_hist, series, stats, dir_bytes =
    Option.get !last
  in
  let epoch_outcomes = List.rev !all in
  let every = Array.to_list (Array.concat epoch_outcomes) in
  env.log (Printf.sprintf "%s: %d requests in %d epochs" (Workload.name cfg.Workload.kind)
             (List.length every) epochs);
  let is_query (o : Wire.outcome) = o.Wire.req.Workload.conn = 0 in
  let warm (o : Wire.outcome) = o.Wire.sent >= cfg.Workload.warmup_s in
  let good (o : Wire.outcome) = o.Wire.verdict = Wire.Good in
  let latency_ms =
    Array.of_list
      (List.filter_map
         (fun o ->
           if o.Wire.req.Workload.timed && warm o && good o then
             Some (ms (o.Wire.finished -. o.Wire.sent))
           else None)
         every)
  in
  (* answered requests of every class per second of the warm parts *)
  let answered, busy_s =
    List.fold_left
      (fun (n, t) outcomes ->
        let warm_answered =
          List.filter (fun o -> warm o && o.Wire.verdict <> Wire.Unanswered)
            (Array.to_list outcomes)
        in
        let first, last =
          List.fold_left
            (fun (a, b) o -> (Float.min a o.Wire.sent, Float.max b o.Wire.finished))
            (infinity, neg_infinity) warm_answered
        in
        if warm_answered = [] then (n, t)
        else (n + List.length warm_answered, t +. (last -. first)))
      (0, 0.) epoch_outcomes
  in
  let failures = List.filter (fun o -> not (good o)) every in
  let from_send (o : Wire.outcome) = ms (o.Wire.finished -. o.Wire.sent) in
  let pick f = Array.of_list (List.filter_map f (Array.to_list outcomes)) in
  let assert_rows =
    List.filter_map
      (fun line ->
        match Dl_proto.parse_request line with
        | Ok (Dl_proto.Assert_ (r, vals)) -> Some (r, vals)
        | _ -> None)
      acked
  in
  let final_db =
    { db with
      Workload.facts =
        db.Workload.facts
        @ List.map (fun (r, v) -> (r, [ v ])) assert_rows }
  in
  {
    setup_s = Array.of_list !setup_s;
    recovery_s = Array.of_list !recovery_s;
    latency_ms;
    throughput = float_of_int answered /. busy_s;
    rss_mb = Stats.median (Array.of_list !rss);
    late_ms =
      Array.of_list (List.map (fun o -> ms (o.Wire.sent -. o.Wire.req.Workload.due)) every);
    attempted = List.length every + tally.attempted;
    failed = List.length failures + tally.failed;
    why =
      tally.why
      @ List.map (fun o -> Wire.verdict_name o.Wire.verdict ^ ": " ^ o.Wire.req.Workload.line)
          failures;
    series;
    query_hist;
    stats;
    query_sent_ms = pick (fun o -> if is_query o && good o then Some (from_send o) else None);
    ack_ms =
      Array.append (Array.of_list base_acks)
        (pick (fun o -> if (not (is_query o)) && good o then Some (from_send o) else None));
    final_db;
    query_lines = List.map (fun (o : Wire.outcome) -> o.Wire.req.Workload.line)
        (List.filter is_query (Array.to_list outcomes));
    ingest_reqs =
      List.map (fun (rel, lines) ->
          (Printf.sprintf "LOAD %s %d" rel (List.length lines), lines))
        (Workload.batches cfg.Workload.batch_rows db.Workload.facts)
      @ List.map (fun l -> (l, [])) acked;
    rows_admitted = count_rows db.Workload.facts + List.length acked;
    dir_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Closed-loop bulk_load                                                *)
(* ------------------------------------------------------------------ *)

(* Check the rows served after a restart against the acked rows: the
   same count, the same multiset of values, one distinct symbol id per
   key, and exact answers for a sample of keys looked up by name. *)
let check_bulk ~traced tally s rng (acked : Dl_proto.value array list) =
  let rows = expect_rows "recovered kv" (Dl_client.request s.conn "QUERY kv _ _") in
  let ids = Hashtbl.create 4096 in
  let served_v =
    List.map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ id; v ] ->
          Hashtbl.replace ids id ();
          v
        | _ -> "?")
      rows
  in
  let acked_v =
    List.map (fun r -> Dl_proto.value_to_string r.(1)) acked
  in
  let sorted l = List.sort compare l in
  checked tally "recovered row count" (List.length rows = List.length acked);
  checked tally "recovered values" (sorted served_v = sorted acked_v);
  checked tally "recovered keys" (Hashtbl.length ids = List.length acked);
  let a = Array.of_list acked in
  let lines = ref [] and lat = ref [] in
  let query_ns () =
    if traced then Ledger.prom_hist (Ledger.scrape s.child) "server.query_ns"
    else Ledger.empty_hist
  in
  let before = query_ns () in
  for _ = 1 to min 20 (Array.length a) do
    let r = a.(Rng.int rng (Array.length a)) in
    let line = Printf.sprintf "QUERY kv %s _" (Dl_proto.value_to_string r.(0)) in
    lines := line :: !lines;
    let t0 = now () in
    let got = expect_rows "key lookup" (Dl_client.request s.conn line) in
    lat := ms (now () -. t0) :: !lat;
    checked tally ("key lookup " ^ line)
      (match got with
      | [ l ] -> (
        match String.split_on_char '\t' l with
        | [ _; v ] -> v = Dl_proto.value_to_string r.(1)
        | _ -> false)
      | _ -> false)
  done;
  (List.rev !lines, Array.of_list !lat, Ledger.hist_diff (query_ns ()) before)

let bulk env cfg ~traced =
  let rng = Rng.create env.seed in
  let db = Workload.base_db cfg in
  let base = List.assoc "kv" db.Workload.facts in
  let base_reqs =
    List.map (fun (rel, lines) -> (Printf.sprintf "LOAD %s %d" rel (List.length lines), lines))
      (Workload.batches cfg.Workload.batch_rows db.Workload.facts)
  in
  let tally = { attempted = 0; failed = 0; why = [] } in
  let dir = Filename.concat env.tmp "bulk_load" in
  let setup_s = ref [] and recovery_s = ref [] and acks = ref [] in
  let rates = ref [] and rss = ref [] and late = ref [] in
  let last = ref None in
  let t_start = now () in
  let cycle = ref 0 in
  while !cycle = 0 || (now () -. t_start < env.seconds && !cycle < 1000) do
    Child.rm_rf dir;
    let t0 = now () in
    let s = start env cfg ~traced dir in
    let rows, _ = install s db cfg in
    setup_s := (now () -. t0) :: !setup_s;
    checked tally "first query" (List.length rows = List.length base);
    let data =
      Workload.bulk_rows ~prefix:(string_of_int !cycle) cfg.Workload.cycle_rows
        (Rng.split rng)
    in
    let acked = ref (List.rev base) and reqs = ref (List.rev base_reqs) in
    let t_load = now () in
    let t_ack = ref nan in
    List.iter
      (fun chunk ->
        let lines = List.map Workload.row_line chunk in
        let t = now () in
        (* closed loop: a LOAD is due when the previous one is acked *)
        if Float.is_finite !t_ack then late := ms (t -. !t_ack) :: !late;
        let r = Dl_client.load s.conn "kv" lines in
        let ok = match r with Ok (Dl_client.Ok_ _) -> true | _ -> false in
        checked tally "LOAD kv" ok;
        t_ack := now ();
        if ok then begin
          acks := ms (!t_ack -. t) :: !acks;
          acked := List.rev_append chunk !acked;
          reqs := (Printf.sprintf "LOAD kv %d" (List.length lines), lines) :: !reqs
        end)
      (Workload.chunks cfg.Workload.batch_rows data);
    let acked = List.rev !acked in
    rates :=
      (float_of_int (List.length acked - List.length base) /. (now () -. t_load)) :: !rates;
    let series = if traced then Ledger.scrape s.child else [] in
    let stats = if traced then Ledger.stats_of (Dl_client.stats s.conn) else [] in
    rss := Child.vm_hwm_mb s.child :: !rss;
    stop s;
    let dir_bytes = Child.dir_bytes (Child.data_dir s.child) in
    let restart () =
      let r, dt, _ = recover env cfg ~traced dir "QUERY byv 0 _" in
      recovery_s := dt :: !recovery_s;
      r
    in
    for _ = 2 to cfg.Workload.restarts do
      stop (restart ())
    done;
    let r = restart () in
    let lookups, lookup_ms, query_hist =
      check_bulk ~traced tally r (Rng.split rng) acked
    in
    stop r;
    Child.rm_rf dir;
    last :=
      Some
        (series, query_hist, stats, acked, List.rev !reqs, lookups, lookup_ms, dir_bytes);
    incr cycle
  done;
  let series, query_hist, stats, acked, reqs, lookups, lookup_ms, dir_bytes =
    Option.get !last
  in
  env.log (Printf.sprintf "bulk_load: %d cycles of %d rows" !cycle cfg.Workload.cycle_rows);
  let acks = Array.of_list (List.rev !acks) in
  {
    setup_s = Array.of_list !setup_s;
    recovery_s = Array.of_list !recovery_s;
    latency_ms = acks;
    throughput = Stats.median (Array.of_list !rates);
    rss_mb = Stats.median (Array.of_list !rss);
    late_ms = Array.of_list !late;
    attempted = tally.attempted;
    failed = tally.failed;
    why = tally.why;
    series;
    query_hist;
    stats;
    query_sent_ms = lookup_ms;
    ack_ms = acks;
    final_db = { db with Workload.facts = [ ("kv", acked) ] };
    query_lines = lookups;
    ingest_reqs = reqs;
    rows_admitted = List.length acked;
    dir_bytes;
  }

let pass env cfg ~traced =
  match cfg.Workload.kind with
  | Workload.Bulk_load -> bulk env cfg ~traced
  | Workload.Point_query | Workload.Ingest_query -> query_loop env cfg ~traced

(* ------------------------------------------------------------------ *)
(* Validity                                                             *)
(* ------------------------------------------------------------------ *)

(* Generator lateness (the gap between a reply and the next request)
   beyond which the closed loop no longer measures the server alone. *)
let late_limit_ms = 20.

let gen_late_p99 p =
  if Array.length p.late_ms = 0 then 0. else Stats.percentile p.late_ms 99

(* Reasons a pass cannot be trusted, empty when it is valid. *)
let invalid p =
  let n = Array.length p.latency_ms in
  (if Stats.tail_ok ~n tail_pct then []
   else
     [ Printf.sprintf "p%d rests on %d samples (needs %d)" tail_pct n
         (Stats.min_samples tail_pct) ])
  @
  if gen_late_p99 p <= late_limit_ms then []
  else [ Printf.sprintf "generator fell behind: p99 lateness %.1f ms" (gen_late_p99 p) ]

(* ------------------------------------------------------------------ *)
(* Ledger                                                               *)
(* ------------------------------------------------------------------ *)

let per_layer env cfg (untraced : pass) (p : pass) =
  let series = p.series in
  let h name = Ledger.prom_hist series name in
  let v name = Ledger.prom_value series name in
  let stat = Ledger.stat_int p.stats in
  let rows = float_of_int (max 1 p.rows_admitted) in
  let flips = stat "flips" in
  let flip = Ledger.replay_flip p.final_db in
  let q = Ledger.replay_queries flip.Ledger.engine (sample 200 p.query_lines) in
  let commit_every =
    max 1 (List.length p.ingest_reqs / max 1 flips)
  in
  let ing =
    Ledger.replay_ingest
      ~dir:(Filename.concat env.tmp "replay-wal")
      ~segment_bytes:
        (match cfg.Workload.server_flags with
        | [ "--wal-segment-mb"; mb ] -> int_of_string mb * 1024 * 1024
        | _ -> 8 * 1024 * 1024)
      ~commit_every ~program:p.final_db.Workload.source p.ingest_reqs
  in
  let eval_sum name =
    List.fold_left
      (fun acc (n, d) -> if n = name then acc +. d else acc)
      0. flip.Ledger.eval
  in
  let strata = List.filter (fun (n, _) -> n = "eval.stratum") flip.Ledger.eval in
  let qh = p.query_hist in
  let nq = List.length (sample 200 p.query_lines) in
  let stats_e = Engine.stats flip.Ledger.engine in
  let useful =
    match stats_e with
    | Some s when s.Dl_stats.s_inserts > 0 ->
      float_of_int s.Dl_stats.s_produced_tuples /. float_of_int s.Dl_stats.s_inserts
    | _ -> 0.
  in
  let div a b = if b = 0. then 0. else a /. b in
  let tree_ms name = float_of_int (Stats.total_ns name flip.Ledger.tree) /. 1e6 in
  (* the highest percentile the untraced pass's pooled samples support *)
  let pooled = untraced.latency_ms in
  let top = Stats.top_percentile (Array.length pooled) in
  let ledger_ok =
    List.for_all (fun t -> Result.is_ok (Stats.check_sums t))
      ((flip.Ledger.tree :: q.Ledger.q_trees) @ ing.Ledger.i_trees)
  in
  let m =
    [
      ("dl_proto.parse_request_ns",
       div (q.Ledger.q_parse_ns +. ing.Ledger.i_parse_ns)
         (float_of_int (nq + ing.Ledger.i_requests)), "ns");
      ("dl_proto.parse_fact_ns_per_row",
       div ing.Ledger.i_fact_ns (float_of_int ing.Ledger.i_fact_rows), "ns");
      ("dl_proto.render_ns_per_row",
       div q.Ledger.q_render_ns (float_of_int (max 1 q.Ledger.q_rows)), "ns");
      ("dl_proto.reply_bytes_per_query",
       div (float_of_int q.Ledger.q_bytes) (float_of_int nq), "B");
      ("dl_server.flips", float_of_int flips, "count");
      ("dl_server.queries_per_flip",
       div (float_of_int qh.Telemetry.h_total) (float_of_int flips), "ratio");
      ("dl_server.flip_ms_p50", Ledger.hist_ms (h "server.flip_ns") 0.5, "ms");
      ("dl_server.flip_ms_p99", Ledger.hist_ms (h "server.flip_ns") 0.99, "ms");
      ("dl_server.query_ms_p50", Ledger.hist_ms qh 0.5, "ms");
      ("dl_server.query_ms_p99", Ledger.hist_ms qh 0.99, "ms");
      ("dl_server.outside_ms",
       Stats.mean p.query_sent_ms
       -. div (float_of_int qh.Telemetry.h_sum /. 1e6) (float_of_int qh.Telemetry.h_total),
       "ms");
      ("dl_server.apply_ms_p99", Ledger.hist_ms (h "server.ingest_ns") 0.99, "ms");
      ("dl_server.busy_rejections", float_of_int (stat "busy_rejections"), "count");
      ("dl_server.ack_ms_p50", Stats.median p.ack_ms, "ms");
      ("wal.append_us_p50", Stats.percentile ing.Ledger.i_append_us 50, "us");
      ("wal.append_us_p99", Stats.percentile ing.Ledger.i_append_us 99, "us");
      ("wal.fsyncs", float_of_int (stat "wal_fsyncs"), "count");
      ("wal.fsync_ms_p99", Ledger.hist_ms (h "server.wal.fsync_ns") 0.99, "ms");
      ("wal.appended_bytes_per_row", float_of_int (stat "wal_bytes") /. rows, "B");
      ("wal.compactions", float_of_int (stat "wal_compactions"), "count");
      ("wal.compact_ms", ing.Ledger.i_compact_ms, "ms");
      ("wal.dir_bytes_per_row", float_of_int p.dir_bytes /. rows, "B");
      ("engine.compile_ms", tree_ms "engine.compile", "ms");
      ("engine.intern_ms", tree_ms "engine.intern", "ms");
      ("engine.stage_ms", tree_ms "engine.stage", "ms");
      ("eval.load_ms", eval_sum "eval.load_facts", "ms");
      ("eval.rules_ms", eval_sum "eval.rules", "ms");
      ("eval.promote_ms", eval_sum "eval.promote", "ms");
      ("eval.stratum_ms.max",
       List.fold_left (fun acc (_, d) -> Float.max acc d) 0. strata, "ms");
      ("eval.strata", float_of_int (List.length strata), "count");
      ("eval.iterations", float_of_int (Engine.iterations flip.Ledger.engine), "count");
      ("eval.useful_insert_frac", useful, "ratio");
      ("relation.scan_us_p50", Stats.median q.Ledger.q_scan_ns /. 1e3, "us");
      ("relation.examined_per_result",
       div (float_of_int q.Ledger.q_examined) (float_of_int q.Ledger.q_results), "ratio");
      ("btree.find_ns_p50",
       float_of_int (Telemetry.hist_quantile (h "btree.find_ns") 0.5), "ns");
      (* the tuple tree records no bound-latency samples, so the bound
         layer is reported as the replayed flip's range-scan openings *)
      ("btree.lower_bounds",
       (match stats_e with
       | Some s -> float_of_int s.Dl_stats.s_lower_bounds
       | None -> 0.),
       "count");
      ("btree.insert_ns_p50",
       float_of_int (Telemetry.hist_quantile (h "btree.insert_ns") 0.5), "ns");
      ("btree.hint_hit_rate", v "btree.hint_hit_rate", "ratio");
      ("btree.batch_keys_per_leaf",
       div (v "btree.batch_keys_total") (v "btree.batch_leaves_total"), "ratio");
      ("btree.leaf_splits_per_row", v "btree.leaf_splits_total" /. rows, "ratio");
      ("btree.restarts", v "btree.restarts_total", "count");
      ("olock.validation_failures", v "olock.validation_failures_total", "count");
      ("olock.write_wait_ns_p99",
       float_of_int (Telemetry.hist_quantile (h "olock.write_wait_ns") 0.99), "ns");
      ("pool.utilisation", v "pool.utilisation", "ratio");
      ("pool.jobs", v "pool.jobs_total", "count");
      ("gc.minor_words_per_row",
       flip.Ledger.minor_words /. float_of_int (max 1 flip.Ledger.rows), "words");
      ("gc.major_collections", float_of_int flip.Ledger.major_collections, "count");
      ("ledger.query_uncovered_frac", Ledger.uncovered q.Ledger.q_trees, "ratio");
      ("ledger.ingest_uncovered_frac", Ledger.uncovered ing.Ledger.i_trees, "ratio");
      ("ledger.flip_uncovered_frac", Stats.uncovered_frac flip.Ledger.tree, "ratio");
      ("gen.late_p99_ms", gen_late_p99 p, "ms");
      ("client.top_pct", float_of_int top, "%");
      ("client.top_ms", Stats.percentile pooled top, "ms");
    ]
  in
  let overhead =
    List.map2
      (fun (n, a, u) (_, b, _) -> ("overhead." ^ n, a -. b, u))
      (e2e p) (e2e untraced)
  in
  (m @ overhead, ledger_ok)
