(* Per-layer cost ledger of the traced run.

   Two sources.  The server's own surfaces: STATS lines and the
   cumulative counters and histograms of its telemetry endpoint.  And
   replays: the benchmark calls the public functions of Dl_proto, Wal,
   Engine and Relation on the run's own inputs, with spans recorded in
   this process around each call, so every replayed request decomposes
   into layers whose durations sum to it (the rest is its uncovered
   share). *)

module J = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Server surfaces                                                      *)
(* ------------------------------------------------------------------ *)

(* STATS payload as key/value pairs. *)
let stats_of = function
  | Ok (Dl_client.Data (_, lines)) ->
    List.filter_map
      (fun l ->
        match String.index_opt l '=' with
        | Some i ->
          Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> None)
      lines
  | _ -> []

let stat_int kvs k =
  match List.assoc_opt k kvs with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
  | None -> 0

(* Prometheus exposition lines as (series, value); comments skipped. *)
let prom_series text =
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | None -> None
        | Some i ->
          Option.map
            (fun v -> (String.sub l 0 i, v))
            (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))))
    (String.split_on_char '\n' text)

(* The exporter's name mangling: "server.flip_ns" -> "repro_server_flip_ns". *)
let prom_base name =
  "repro_"
  ^ String.map
      (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
      name

let prom_value series name =
  Option.value ~default:0. (List.assoc_opt (prom_base name) series)

(* Rebuild a telemetry histogram from its cumulative exposition. *)
let prom_hist series name =
  let base = prom_base name in
  let prefix = base ^ "_bucket{le=\"" in
  let np = String.length prefix in
  let counts = Array.make Telemetry.Hist.bucket_count 0 in
  let prev = ref 0 in
  List.iter
    (fun (s, v) ->
      if String.length s > np && String.sub s 0 np = prefix then
        let le = String.sub s np (String.length s - np - 2) in
        match int_of_string_opt le with
        | Some le ->
          let cum = int_of_float v in
          let b = Telemetry.Hist.bucket_of_value le in
          counts.(b) <- counts.(b) + (cum - !prev);
          prev := cum
        | None -> ())
    series;
  let get suffix =
    int_of_float
      (Option.value ~default:0. (List.assoc_opt (base ^ suffix) series))
  in
  {
    Telemetry.h_counts = counts;
    h_total = get "_count";
    h_sum = get "_sum";
    h_max = get "_max";
  }

let empty_hist =
  {
    Telemetry.h_counts = Array.make Telemetry.Hist.bucket_count 0;
    h_total = 0;
    h_sum = 0;
    h_max = 0;
  }

(* Samples recorded between two scrapes: [after] minus [before]. *)
let hist_diff after before =
  {
    Telemetry.h_counts =
      Array.mapi (fun i c -> c - before.Telemetry.h_counts.(i)) after.Telemetry.h_counts;
    h_total = after.Telemetry.h_total - before.Telemetry.h_total;
    h_sum = after.Telemetry.h_sum - before.Telemetry.h_sum;
    h_max = after.Telemetry.h_max;
  }

let hist_ms h q = float_of_int (Telemetry.hist_quantile h q) /. 1e6

let scrape child =
  match Child.metrics_addr child with
  | None -> []
  | Some a -> (
    match Telemetry_server.fetch a "/metrics" with
    | Ok (200, body) -> prom_series body
    | _ -> [])

(* ------------------------------------------------------------------ *)
(* Replays                                                              *)
(* ------------------------------------------------------------------ *)

let ns_of s = float_of_int (Stats.duration s)

let ints_of e vals =
  Array.map
    (function Dl_proto.V_int v -> v | Dl_proto.V_sym s -> Engine.intern e s)
    vals

(* Eval-layer spans the engine records itself when tracing is on. *)
let eval_spans () =
  let evs =
    match J.member "traceEvents" (Telemetry.trace_json ()) with
    | Some (J.List l) -> l
    | _ -> []
  in
  List.filter_map
    (fun ev ->
      match (J.member "name" ev, J.member "dur" ev) with
      | Some (J.String n), Some (J.Float d) -> Some (n, d /. 1e3 (* us -> ms *))
      | _ -> None)
    evs

type flip = {
  engine : Engine.t;
  tree : Stats.span;
  eval : (string * float) list; (* eval span name, ms *)
  rows : int;
  minor_words : float;
  major_collections : int;
}

(* One generation flip at the run's final resident state: compile,
   intern, stage, evaluate — the server's [build_generation], step by
   step, with counters and the engine's own spans on. *)
let replay_flip (db : Workload.db) =
  let rows =
    List.fold_left (fun acc (_, l) -> acc + List.length l) 0 db.Workload.facts
  in
  Telemetry.reset ();
  Telemetry.enable ~tracing:true ();
  let g0 = Gc.quick_stat () in
  let e, tree =
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    Stats.timed "flip" (fun () ->
        let e =
          Stats.span "engine.compile" (fun () ->
              Engine.create ~instrument:true db.Workload.program)
        in
        let staged =
          Stats.span "engine.intern" (fun () ->
              List.map
                (fun (rel, rs) ->
                  (rel, Array.of_list (List.map (ints_of e) rs)))
                db.Workload.facts)
        in
        Stats.span "engine.stage" (fun () ->
            List.iter (fun (rel, a) -> Engine.add_fact_run e rel a) staged);
        Stats.span "engine.run" (fun () -> Workload.run_engine ~workers:2 e);
        e)
  in
  let g1 = Gc.quick_stat () in
  {
    engine = e;
    tree;
    eval = eval_spans ();
    rows;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

type query_replay = {
  q_trees : Stats.span list;
  q_scan_ns : float array;
  q_examined : int;
  q_results : int;
  q_render_ns : float;
  q_rows : int;
  q_bytes : int;
  q_parse_ns : float;
}

(* The server's reader phase for each query line: parse, resolve the
   pattern, [begin_read] + full [Reader.scan] with the field filter,
   then render the DATA reply. *)
let replay_queries e lines =
  let trees = ref [] and scans = ref [] in
  let examined = ref 0 and results = ref 0 and rows_total = ref 0 in
  let render_ns = ref 0. and parse_ns = ref 0. and bytes = ref 0 in
  List.iter
    (fun line ->
      let (), tree =
        Stats.timed "query" (fun () ->
            let req, ps =
              Stats.timed "dl_proto.parse_request" (fun () ->
                  Dl_proto.parse_request line)
            in
            parse_ns := !parse_ns +. ns_of ps;
            match req with
            | Ok (Dl_proto.Query (rel, pats)) ->
              let r = Engine.relation e rel in
              let ipats =
                Array.map
                  (function
                    | Dl_proto.P_any -> None
                    | Dl_proto.P_val (Dl_proto.V_int v) -> Some v
                    | Dl_proto.P_val (Dl_proto.V_sym s) -> Some (Engine.intern e s))
                  pats
              in
              let out, ss =
                Stats.timed "relation.scan" (fun () ->
                    let rd = Relation.begin_read r in
                    Fun.protect
                      ~finally:(fun () -> Relation.Reader.finish rd)
                      (fun () ->
                        let acc = ref [] in
                        Relation.Reader.scan rd (-1) [||] (fun tup ->
                            incr examined;
                            let ok = ref true in
                            Array.iteri
                              (fun j p ->
                                match p with
                                | Some v when tup.(j) <> v -> ok := false
                                | _ -> ())
                              ipats;
                            if !ok then acc := Workload.answer_line tup :: !acc);
                        List.rev !acc))
              in
              scans := ns_of ss :: !scans;
              let n = List.length out in
              results := !results + n;
              rows_total := !rows_total + n;
              let buf = Buffer.create 4096 in
              let (), rs =
                Stats.timed "dl_proto.render" (fun () ->
                    Dl_proto.render buf
                      (Dl_proto.R_data (Printf.sprintf "%s rows=%d gen=1" rel n, out)))
              in
              render_ns := !render_ns +. ns_of rs;
              bytes := !bytes + Buffer.length buf
            | _ -> ())
      in
      trees := tree :: !trees)
    lines;
  {
    q_trees = List.rev !trees;
    q_scan_ns = Array.of_list !scans;
    q_examined = !examined;
    q_results = !results;
    q_render_ns = !render_ns;
    q_rows = !rows_total;
    q_bytes = !bytes;
    q_parse_ns = !parse_ns;
  }

type ingest_replay = {
  i_trees : Stats.span list;
  i_parse_ns : float; (* request lines *)
  i_requests : int;
  i_fact_ns : float; (* payload rows *)
  i_fact_rows : int;
  i_append_us : float array;
  i_compact_ms : float;
}

(* The admission path of each ingest request: parse the request line
   (and a LOAD's payload rows), then the write-ahead append.  A commit
   marker follows every [commit_every] requests, as flips do in the
   run, and the log is compacted once at the end over every fact. *)
let replay_ingest ~dir ~segment_bytes ~commit_every ~program
    (reqs : (string * string list) list) =
  Child.rm_rf dir;
  match Wal.open_dir ~segment_bytes ~durability:Wal.D_batch dir with
  | Error m -> failwith ("replay wal: " ^ m)
  | Ok (w, _) ->
    Fun.protect
      ~finally:(fun () ->
        Wal.close w;
        Child.rm_rf dir)
    @@ fun () ->
    let trees = ref [] and appends = ref [] in
    let parse_ns = ref 0. and fact_ns = ref 0. and fact_rows = ref 0 in
    let facts = Hashtbl.create 8 in
    let k = ref 0 in
    List.iter
      (fun (line, payload) ->
        let (), tree =
          Stats.timed "ingest" (fun () ->
              let req, ps =
                Stats.timed "dl_proto.parse_request" (fun () ->
                    Dl_proto.parse_request line)
              in
              parse_ns := !parse_ns +. ns_of ps;
              let entry =
                match req with
                | Ok (Dl_proto.Load (rel, _)) ->
                  let (), fs =
                    Stats.timed "dl_proto.parse_fact" (fun () ->
                        List.iter (fun l -> ignore (Dl_proto.parse_fact l)) payload)
                  in
                  fact_ns := !fact_ns +. ns_of fs;
                  fact_rows := !fact_rows + List.length payload;
                  Some (rel, payload)
                | Ok (Dl_proto.Assert_ (rel, vals)) ->
                  Some (rel, [ Workload.row_line vals ])
                | _ -> None
              in
              match entry with
              | None -> ()
              | Some (rel, lines) ->
                let prev = try Hashtbl.find facts rel with Not_found -> [] in
                Hashtbl.replace facts rel (List.rev_append lines prev);
                let r, s =
                  Stats.timed "wal.append" (fun () ->
                      Wal.append w (Wal.Facts (rel, lines)))
                in
                (match r with Ok () -> () | Error m -> failwith ("replay wal: " ^ m));
                appends := (ns_of s /. 1e3) :: !appends)
        in
        trees := tree :: !trees;
        incr k;
        if !k mod commit_every = 0 then ignore (Wal.append w (Wal.Commit !k)))
      reqs;
    let facts = Hashtbl.fold (fun rel l acc -> (rel, List.rev l) :: acc) facts [] in
    let r, cs =
      Stats.timed "wal.compact" (fun () -> Wal.compact w ~program ~seq:!k facts)
    in
    (match r with Ok () -> () | Error m -> failwith ("replay compact: " ^ m));
    {
      i_trees = List.rev !trees;
      i_parse_ns = !parse_ns;
      i_requests = List.length reqs;
      i_fact_ns = !fact_ns;
      i_fact_rows = !fact_rows;
      i_append_us = Array.of_list !appends;
      i_compact_ms = ns_of cs /. 1e6;
    }

(* Median uncovered share of a list of request spans; [nan] if a span
   breaks the ledger invariant (children must sum into the parent). *)
let uncovered trees =
  if List.exists (fun t -> Result.is_error (Stats.check_sums t)) trees then nan
  else Stats.median (Array.of_list (List.map Stats.uncovered_frac trees))
