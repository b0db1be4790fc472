(* Resident query server: one server domain owns everything.

   The server runs on a {!Reactor}: its domain exclusively owns the
   listener, every session, the admission queue, the pending ingest batch
   and the resident engine.  Nothing on this path is synchronised because
   nothing is shared; the only cross-domain edges are the reactor's
   self-pipe, the resident pool (driven only from the server domain), and
   the telemetry gauge registry, whose reads are racy-but-defined loads.

   Phases: ingest is *admitted* on the server domain (validated, logged,
   appended to the pending batch, acknowledged) and *applied* in batched
   writer phases — a generation flip hands the batch to the one resident
   engine, whose semi-naive run evaluates only what the batch changes.
   The engine is the only store of base facts: it keeps them apart from
   derived tuples, and WAL snapshots read them back from it.  Recovery
   streams the log into it: [Wal.open_dir] hands each record to
   [replay_entry] as it is decoded, which queues the record's facts in
   the engine at once, and the first tick evaluates them; no list of the
   log is kept.  A fresh engine is built from the old one's base facts
   and symbol table only on a RULES install (live or replayed) and after
   a failed flip.  Queries are
   fanned out over the pool as concurrent reader phases between flips, so
   the paper's all-writers-or-all-readers discipline holds by construction;
   every relation's always-on phase latch asserts it never tears, and
   STATS counts any tear as a phase violation.  Each QUERY is one
   [Relation.Reader.query]: a lower-bound descent and range scan of the
   relation's index whose order starts with the most bound columns, or a
   filtered full scan when no index serves the pattern (that module
   documents the choice); the tuples examined and rows returned are
   counted into STATS and telemetry. *)

type config = {
  addr : Telemetry_server.addr;
  kind : Storage.kind;
  workers : int;
  flip_pending : int;
  flip_interval_ms : int;
  max_pending : int;
  max_clients : int;
  data_dir : string option;
  durability : Wal.durability;
  wal_segment_bytes : int;
  wal_compact_segments : int;
}

let default_config addr =
  {
    addr;
    kind = Storage.Btree;
    workers = Pool.recommended_workers ();
    flip_pending = 256;
    flip_interval_ms = 50;
    max_pending = 100_000;
    max_clients = 64;
    data_dir = None;
    durability = Wal.D_batch;
    wal_segment_bytes = 8 * 1024 * 1024;
    wal_compact_segments = 4;
  }

(* --------------------------------------------------------------- *)
(* Per-session state (all touched only by the server domain)        *)
(* --------------------------------------------------------------- *)

(* An announced LOAD/RULES payload being consumed line by line.  The
   first error poisons the batch — remaining lines are still consumed
   (framing must survive bad content) but the whole batch is rejected,
   so a LOAD is atomic: all facts or none. *)
type payload = {
  p_kind : [ `Load of string * int (* relation, arity *) | `Rules ];
  mutable p_left : int;
  mutable p_lines : string list; (* newest first *)
  mutable p_bytes : int; (* accumulated payload bytes (unpoisoned lines) *)
  mutable p_err : (Dl_proto.err_code * string) option;
  mutable p_lineno : int;
  p_reserved : int; (* rows charged against s_reserved at admission *)
  p_t0 : int;
}

type conn = { c_rc : Reactor.conn; mutable c_payload : payload option }

type state = {
  s_cfg : config;
  s_pool : Pool.t;
  mutable s_batch : (string * Dl_proto.value array list) list;
      (* admitted rows not yet applied, one entry per request, newest
         first; kept until a flip applies them *)
  s_col_kinds : (string, int array) Hashtbl.t;
      (* per relation and column, what was admitted there: [saw_int] and
         [saw_sym] bits — snapshots render symbol columns back through the
         engine's symbol table *)
  s_queries : (conn * string * Dl_proto.pat array * int) Queue.t;
  mutable s_wal : Wal.t option; (* set once recovery has replayed the log *)
  mutable s_recovery : Wal.recovery option;
  mutable s_wal_errors : int; (* degraded-mode append/fsync failures *)
  mutable s_program_text : string option; (* installed source, for snapshots *)
  mutable s_program : Ast.program option;
  mutable s_decls : (string * int) list; (* name, arity of installed decls *)
  mutable s_engine : Engine.t option; (* Some once a program is installed *)
  mutable s_gen_seq : int;
  mutable s_stale : bool; (* program/facts newer than what is served *)
  mutable s_pending : int; (* facts admitted since the last flip *)
  mutable s_reserved : int; (* rows of in-flight LOAD batches, pre-admission *)
  mutable s_pending_t0s : int list; (* admission stamps of pending requests *)
  mutable s_oldest_pending : int; (* ns; max_int when none *)
  mutable s_flip_failures : int; (* consecutive *)
  mutable s_retry_at : int; (* ns; no flip before this after a failure *)
  mutable s_requests : int;
  mutable s_busy : int;
  mutable s_flips : int;
  mutable s_clients : int;
  mutable s_conn_total : int;
  mutable s_phase_violations : int;
  mutable s_query_examined : int; (* tuples examined by QUERY answers *)
  mutable s_query_rows : int; (* rows returned by QUERY answers *)
  mutable s_shutting_down : bool;
  mutable s_drain_deadline : int; (* ns; meaningful once shutting down *)
}

(* --------------------------------------------------------------- *)
(* Gauge registry handshake (the only cross-domain shared state)    *)
(* --------------------------------------------------------------- *)

(* [register_gauges] appends, so register once and route through a slot
   holding the current server; the provider's field reads are racy
   plain loads of ints, the documented gauge contract. *)
let gauge_mutex = Mutex.create ()
let gauge_slot : state option ref = ref None
let gauges_registered = ref false

let read_gauge_slot () = Mutex.protect gauge_mutex (fun () -> !gauge_slot)

let install_gauges st =
  Mutex.protect gauge_mutex (fun () ->
      gauge_slot := Some st;
      if not !gauges_registered then begin
        gauges_registered := true;
        Telemetry_server.register_gauges "dl_server" (fun () ->
            match read_gauge_slot () with
            | None -> []
            | Some st ->
              [
                ("pending_ingest", float_of_int st.s_pending);
                ("reserved_ingest", float_of_int st.s_reserved);
                ("queued_queries", float_of_int (Queue.length st.s_queries));
                ("clients", float_of_int st.s_clients);
                ("generation", float_of_int st.s_gen_seq);
                ("flips", float_of_int st.s_flips);
                ("busy_rejections", float_of_int st.s_busy);
                ("phase_violations", float_of_int st.s_phase_violations);
              ])
      end)

(* Two servers may coexist (the slot routes to whichever registered
   last); only clear it if it still points at the state being cleaned
   up, so stopping one server cannot disable the survivor's gauges. *)
let clear_gauges st =
  Mutex.protect gauge_mutex (fun () ->
      match !gauge_slot with
      | Some cur when cur == st -> gauge_slot := None
      | _ -> ())

(* --------------------------------------------------------------- *)
(* Session plumbing                                                 *)
(* --------------------------------------------------------------- *)

let render_line resp =
  let buf = Buffer.create 128 in
  Dl_proto.render buf resp;
  Buffer.contents buf

let respond c resp = Reactor.send c.c_rc (render_line resp)

let note_busy st =
  st.s_busy <- st.s_busy + 1;
  Telemetry.bump Telemetry.Counter.Server_busy_rejections

let fail c code msg = respond c (Dl_proto.R_err (code, msg))

let reject_busy st c msg =
  note_busy st;
  fail c Dl_proto.E_busy msg

(* --------------------------------------------------------------- *)
(* Durability (write-ahead log)                                     *)
(* --------------------------------------------------------------- *)

(* Write-through before acknowledging an admission.  The ack contract
   is per durability mode: under strict a failed append/fsync must
   refuse the request (the ack would be a durability lie); under the
   weaker modes the failure is counted and service continues degraded
   — recovery still replays every record that did reach the disk. *)
let wal_admit st e =
  match st.s_wal with
  | None -> Ok ()
  | Some w -> (
    match Wal.append w e with
    | Ok () -> Ok ()
    | Error msg ->
      st.s_wal_errors <- st.s_wal_errors + 1;
      if Wal.durability w = Wal.D_strict then
        Error (Dl_proto.E_internal, "durability failure: " ^ msg)
      else Ok ())

let fact_line vals =
  String.concat " "
    (Array.to_list (Array.map Dl_proto.value_to_string vals))

(* The base facts of every declared relation, read back from the engine
   in protocol surface form — what a snapshot segment stores: one
   iterator per relation over [Engine.iter_base], which the WAL drains
   into bounded records as it writes, so no copy of the facts is ever
   held.  Values in
   a column that was admitted a symbol are rendered through the engine's
   symbol table; the engine holds derived tuples apart, so none of them
   is persisted as a base fact. *)
let saw_int = 1
let saw_sym = 2

let snapshot_facts st e =
  List.map
    (fun (rel, arity) ->
      let kinds =
        Option.value (Hashtbl.find_opt st.s_col_kinds rel)
          ~default:(Array.make arity saw_int)
      in
      (* Ints and symbols share the engine's value domain.  In a column
         that was admitted only symbols every value names one, admitted
         as a protocol token; in a mixed column a value that names a
         symbol is rendered as that symbol when the name reads back as
         one (a program's quoted symbol need not). *)
      let token name =
        name <> ""
        && int_of_string_opt name = None
        && not
             (String.exists
                (function ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
                name)
      in
      let render i v =
        if kinds.(i) land saw_sym = 0 then Dl_proto.V_int v
        else
          match Engine.symbol_name e v with
          | Some name when kinds.(i) = saw_sym || token name ->
            Dl_proto.V_sym name
          | _ -> Dl_proto.V_int v
      in
      ( rel,
        fun emit ->
          Engine.iter_base e rel (fun tup ->
              emit (fact_line (Array.mapi render tup))) ))
    st.s_decls

(* After a successful flip, once its waiting queries are answered: mark
   the group-commit point (the fsync that makes everything admitted
   before this flip durable under batch), and compact once the log
   outgrows a few segments — the flip boundary is the one moment the
   engine's base facts and the committed state agree exactly (the
   pending batch is empty; answering queries admits nothing), so the
   snapshot is trivially consistent. *)
let wal_flip st =
  match (st.s_wal, st.s_engine) with
  | None, _ | _, None -> ()
  | Some w, Some e ->
    (match Wal.append w (Wal.Commit st.s_gen_seq) with
    | Ok () -> ()
    | Error _ -> st.s_wal_errors <- st.s_wal_errors + 1);
    if Wal.should_compact w then
      match
        Wal.compact_iter w ?program:st.s_program_text ~seq:st.s_gen_seq
          (snapshot_facts st e)
      with
      | Ok () -> ()
      | Error _ -> st.s_wal_errors <- st.s_wal_errors + 1

(* --------------------------------------------------------------- *)
(* Generation flips (writer phases)                                 *)
(* --------------------------------------------------------------- *)

(* Queue one request's rows in the engine, interning their symbols. *)
let queue_rows e rel rows =
  Engine.add_fact_run e rel
    (Array.of_list
       (List.map
          (Array.map (function
            | Dl_proto.V_int v -> v
            | Dl_proto.V_sym s -> Engine.intern e s))
          rows))

(* Hand the pending batch to the engine, oldest request first. *)
let apply_batch st e =
  List.iter (fun (rel, rows) -> queue_rows e rel rows) (List.rev st.s_batch)

let fail_waiting_queries st msg =
  Queue.iter
    (fun (c, _, _, _) -> fail c Dl_proto.E_internal msg)
    st.s_queries;
  Queue.clear st.s_queries

(* A resident engine that completed a run serves queries between flips. *)
let serving st =
  match st.s_engine with Some e -> Engine.has_run e | None -> false

(* One writer phase; [true] when it succeeded.  The caller answers the
   waiting queries before it commits the flip ([wal_flip]). *)
let do_flip st =
  match (st.s_engine, st.s_program) with
  | None, _ | _, None -> false
  | Some e, Some prog -> (
    let t0 = Telemetry.now_ns () in
    match
      apply_batch st e;
      Engine.run e st.s_pool
    with
    | () ->
      let now = Telemetry.now_ns () in
      st.s_gen_seq <- st.s_gen_seq + 1;
      st.s_stale <- false;
      st.s_flips <- st.s_flips + 1;
      st.s_flip_failures <- 0;
      st.s_retry_at <- 0;
      Telemetry.bump Telemetry.Counter.Server_phase_flips;
      Telemetry.hist_record Telemetry.Hist.Server_flip_ns (now - t0);
      List.iter
        (fun a -> Telemetry.hist_record Telemetry.Hist.Server_ingest_ns (now - a))
        st.s_pending_t0s;
      st.s_batch <- [];
      st.s_pending <- 0;
      st.s_pending_t0s <- [];
      st.s_oldest_pending <- max_int;
      true
    | exception ex ->
      (* Contained: the engine stopped part-way, so it is replaced by one
         built from its base facts (which already hold part of the batch)
         and no query is answered until a flip succeeds.  The batch stays
         pending and the flip retries on the next trigger.  After a few
         consecutive failures the waiting queries are failed rather than
         starved forever. *)
      (match ex with
      | Relation.Phase_violation _ ->
        st.s_phase_violations <- st.s_phase_violations + 1
      | _ -> ());
      st.s_engine <- Some (Engine.create ~kind:st.s_cfg.kind ~from:e prog);
      st.s_flip_failures <- st.s_flip_failures + 1;
      (* back off so an armed chaos point cannot hot-spin the loop *)
      st.s_retry_at <-
        Telemetry.now_ns () + (st.s_cfg.flip_interval_ms * 1_000_000);
      if st.s_flip_failures >= 3 then begin
        fail_waiting_queries st
          (Printf.sprintf "evaluation failing (%d attempts): %s"
             st.s_flip_failures (Printexc.to_string ex));
        st.s_flip_failures <- 0
      end;
      false)

let flip_due st now =
  st.s_engine <> None
  && (st.s_stale || st.s_pending > 0)
  && now >= st.s_retry_at
  && ((not (serving st)) || st.s_shutting_down
     || st.s_pending >= st.s_cfg.flip_pending
     || (not (Queue.is_empty st.s_queries))
     || st.s_pending > 0
        && now - st.s_oldest_pending
           >= st.s_cfg.flip_interval_ms * 1_000_000)

(* --------------------------------------------------------------- *)
(* Query execution (reader phases)                                  *)
(* --------------------------------------------------------------- *)

(* A resolved pattern field: symbols are looked up on the server domain
   before fanning out, never interned — the symbol table is resident, so
   interning every unknown query symbol would grow it without bound.  A
   symbol the engine never saw matches nothing. *)

let decl_arity st rel = List.assoc_opt rel st.s_decls

let row_to_string tup =
  String.concat "\t" (Array.to_list (Array.map string_of_int tup))

let run_queries st =
  match st.s_engine with
  | Some gen
    when serving st && (not st.s_stale) && not (Queue.is_empty st.s_queries)
    ->
    let qs = Array.of_seq (Queue.to_seq st.s_queries) in
    Queue.clear st.s_queries;
    let k = Array.length qs in
    (* Resolve relations and patterns sequentially on the server domain;
       workers then touch only immutable relation structure.  A query was
       validated at admission, but a RULES install does not flush the
       queue — the relation may have been dropped or re-declared at a
       different arity since, so re-validate against the *current* decls
       here and answer a structured error rather than let a raised
       [Engine.relation] kill the server domain. *)
    let resolved =
      Array.map
        (fun (_, rel, pats, _) ->
          match decl_arity st rel with
          | None -> Error (Dl_proto.E_relation, "unknown relation " ^ rel)
          | Some arity when Array.length pats <> arity ->
            Error
              ( Dl_proto.E_arity,
                Printf.sprintf "%d pattern fields, %s has arity %d"
                  (Array.length pats) rel arity )
          | Some _ -> (
            match Engine.relation gen rel with
            | r ->
              let unknown = ref false in
              let ipats =
                Array.map
                  (function
                    | Dl_proto.P_any -> None
                    | Dl_proto.P_val (Dl_proto.V_int v) -> Some v
                    | Dl_proto.P_val (Dl_proto.V_sym s) -> (
                      match Engine.find_symbol gen s with
                      | Some id -> Some id
                      | None ->
                        unknown := true;
                        None))
                  pats
              in
              Ok ((if !unknown then None else Some r), ipats)
            | exception _ ->
              Error (Dl_proto.E_relation, "unknown relation " ^ rel)))
        qs
    in
    let slots =
      Array.map
        (function Error (c, m) -> `Reject (c, m) | Ok _ -> `Unrun)
        resolved
    in
    let run_one i =
      match resolved.(i) with
      | Error _ -> ()
      | Ok (None, _) -> slots.(i) <- `Rows ([], 0, 0)
      | Ok (Some r, ipats) -> (
        match
          let reader = Relation.begin_read r in
          Fun.protect
            ~finally:(fun () -> Relation.Reader.finish reader)
            (fun () ->
              let rows = ref [] in
              let n = ref 0 in
              let examined =
                Relation.Reader.query reader ipats (fun tup ->
                    rows := row_to_string tup :: !rows;
                    incr n)
              in
              (List.rev !rows, !n, examined))
        with
        | rows, n, examined -> slots.(i) <- `Rows (rows, n, examined)
        | exception Relation.Phase_violation m -> slots.(i) <- `Violation m
        | exception e -> slots.(i) <- `Failed (Printexc.to_string e))
    in
    (* Fan out: each worker takes a strided slice; slot writes are
       disjoint plain writes, joined by Pool.run before anyone reads. *)
    (try
       Pool.run st.s_pool ~label:"serve.query" (fun w ->
           let i = ref w in
           let stride = Pool.size st.s_pool in
           while !i < k do
             run_one !i;
             i := !i + stride
           done)
     with Pool.Pool_failure _ -> ());
    let now = Telemetry.now_ns () in
    Array.iteri
      (fun i slot ->
        let c, rel, _, t0 = qs.(i) in
        Telemetry.hist_record Telemetry.Hist.Server_query_ns (now - t0);
        match slot with
        | `Rows (rows, n, examined) ->
          st.s_query_examined <- st.s_query_examined + examined;
          st.s_query_rows <- st.s_query_rows + n;
          Telemetry.add Telemetry.Counter.Server_query_examined examined;
          Telemetry.add Telemetry.Counter.Server_query_rows n;
          respond c
            (Dl_proto.R_data
               ( Printf.sprintf "%s rows=%d gen=%d" rel n st.s_gen_seq,
                 rows ))
        | `Reject (code, msg) -> fail c code msg
        | `Violation m ->
          st.s_phase_violations <- st.s_phase_violations + 1;
          fail c Dl_proto.E_internal ("phase violation: " ^ m)
        | `Failed m -> fail c Dl_proto.E_internal m
        | `Unrun ->
          fail c Dl_proto.E_internal "query worker died")
      slots
  | _ -> ()

(* --------------------------------------------------------------- *)
(* Request handling                                                 *)
(* --------------------------------------------------------------- *)

let stats_response st =
  let lines =
    [
      "proto=" ^ Dl_proto.version;
      Printf.sprintf "program=%s"
        (match st.s_program with Some _ -> "installed" | None -> "none");
      Printf.sprintf "generation=%d" st.s_gen_seq;
      Printf.sprintf "symbols=%d"
        (match st.s_engine with Some e -> Engine.symbols e | None -> 0);
      Printf.sprintf "stale=%b" st.s_stale;
      Printf.sprintf "pending_ingest=%d" st.s_pending;
      Printf.sprintf "reserved_ingest=%d" st.s_reserved;
      Printf.sprintf "queued_queries=%d" (Queue.length st.s_queries);
      Printf.sprintf "clients=%d" st.s_clients;
      Printf.sprintf "conns_total=%d" st.s_conn_total;
      Printf.sprintf "requests=%d" st.s_requests;
      Printf.sprintf "busy_rejections=%d" st.s_busy;
      Printf.sprintf "flips=%d" st.s_flips;
      Printf.sprintf "flip_failures=%d" st.s_flip_failures;
      Printf.sprintf "phase_violations=%d" st.s_phase_violations;
      Printf.sprintf "query_examined=%d" st.s_query_examined;
      Printf.sprintf "query_rows=%d" st.s_query_rows;
      Printf.sprintf "workers=%d" (Pool.size st.s_pool);
      Printf.sprintf "storage=%s" (Storage.kind_name st.s_cfg.kind);
    ]
  in
  let wal_lines =
    match st.s_wal with
    | None -> [ "durability=off" ]
    | Some w ->
      [
        "durability=" ^ Wal.durability_name (Wal.durability w);
        "wal_dir=" ^ Wal.dir w;
        Printf.sprintf "wal_segments=%d" (Wal.segments w);
        Printf.sprintf "wal_records=%d" (Wal.records w);
        Printf.sprintf "wal_bytes=%d" (Wal.appended_bytes w);
        Printf.sprintf "wal_fsyncs=%d" (Wal.fsyncs w);
        Printf.sprintf "wal_compactions=%d" (Wal.compactions w);
        Printf.sprintf "wal_errors=%d" st.s_wal_errors;
        Printf.sprintf "wal_torn=%b" (Wal.torn w);
      ]
      @ (match st.s_recovery with
        | None -> []
        | Some rv ->
          [
            Printf.sprintf "recovered_records=%d" rv.Wal.rv_records;
            Printf.sprintf "recovered_segments=%d" rv.Wal.rv_segments;
            Printf.sprintf "recovered_bytes=%d" rv.Wal.rv_bytes;
            Printf.sprintf "recovered_commit_seq=%d" rv.Wal.rv_committed_seq;
            Printf.sprintf "recovered_torn_tail=%b" rv.Wal.rv_torn_tail;
          ])
  in
  let lines = lines @ wal_lines in
  let rels =
    match st.s_engine with
    | Some gen when serving st ->
      (* quiescent: the server domain is between phases here *)
      List.map
        (fun r ->
          Printf.sprintf "rel.%s=%d" r
            (Relation.cardinal (Engine.relation gen r)))
        (Engine.relations gen)
    | _ -> []
  in
  Dl_proto.R_data ("server stats", lines @ rels)

(* Record what kind of value each column of [rel] was admitted. *)
let note_columns st rel rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    let kinds =
      match Hashtbl.find_opt st.s_col_kinds rel with
      | Some kinds -> kinds
      | None ->
        let kinds = Array.make (Array.length first) 0 in
        Hashtbl.replace st.s_col_kinds rel kinds;
        kinds
    in
    List.iter
      (Array.iteri (fun i v ->
           kinds.(i) <-
             kinds.(i)
             lor match v with Dl_proto.V_int _ -> saw_int | Dl_proto.V_sym _ -> saw_sym))
      rows

(* [t0] is the admission stamp of the ingest request; the flip records
   admission-to-applied latency from it.  The caller has logged the rows
   and added them to the pending batch. *)
let admit_ingest st rel rows t0 =
  note_columns st rel rows;
  st.s_pending <- st.s_pending + List.length rows;
  st.s_pending_t0s <- t0 :: st.s_pending_t0s;
  if st.s_oldest_pending = max_int then st.s_oldest_pending <- t0;
  st.s_stale <- true

(* A program change builds the next engine from the current one: base
   facts of relations that keep their name and arity carry over, with
   their symbol ids; the others are dropped, from the pending batch
   too. *)
let install_program st prog text_rules =
  let decls = List.map (fun d -> (d.Ast.name, d.Ast.arity)) prog.Ast.decls in
  let survives rel arity = List.assoc_opt rel decls = Some arity in
  let engine = Engine.create ~kind:st.s_cfg.kind ?from:st.s_engine prog in
  let kept = ref 0 and dropped = ref 0 in
  let tally rel arity n =
    if survives rel arity then kept := !kept + n else dropped := !dropped + n
  in
  Option.iter
    (fun e ->
      List.iter
        (fun rel ->
          let n = ref 0 in
          Engine.iter_base e rel (fun _ -> incr n);
          tally rel (Engine.relation_arity e rel) !n)
        (Engine.relations e))
    st.s_engine;
  st.s_batch <-
    List.filter
      (fun (rel, rows) ->
        let arity = match rows with r :: _ -> Array.length r | [] -> -1 in
        tally rel arity (List.length rows);
        survives rel arity)
      st.s_batch;
  Hashtbl.filter_map_inplace
    (fun rel cols -> if survives rel (Array.length cols) then Some cols else None)
    st.s_col_kinds;
  st.s_engine <- Some engine;
  st.s_program <- Some prog;
  st.s_decls <- decls;
  st.s_stale <- true;
  Printf.sprintf "program installed rels=%d rules=%d kept_facts=%d \
                  dropped_facts=%d"
    (List.length prog.Ast.decls) text_rules !kept !dropped

let finish_rules st c p =
  match p.p_err with
  | Some (code, msg) -> fail c code msg
  | None -> (
    let text = String.concat "\n" (List.rev p.p_lines) ^ "\n" in
    match Parser.parse_string ~filename:"<rules>" text with
    | exception Parser.Syntax_error { line; col; message } ->
      fail c Dl_proto.E_program
        (Printf.sprintf "syntax error at %d:%d: %s" line col message)
    | prog -> (
      (* probe-compile so static errors surface here, not at flip time *)
      match Engine.create ~kind:st.s_cfg.kind prog with
      | exception Plan.Compile_error msg ->
        fail c Dl_proto.E_program msg
      | exception Stratify.Not_stratifiable msg ->
        fail c Dl_proto.E_program ("not stratifiable: " ^ msg)
      | exception e ->
        fail c Dl_proto.E_program (Printexc.to_string e)
      | _probe -> (
        (* log the install before mutating state: replay must see the
           program change exactly where admissions saw it *)
        match wal_admit st (Wal.Rules text) with
        | Error (code, msg) -> fail c code msg
        | Ok () ->
          let info = install_program st prog (List.length prog.Ast.rules) in
          st.s_program_text <- Some text;
          respond c (Dl_proto.R_ok info))))

(* Fact lines of [rel] parsed at [arity], newest first; the first bad
   line stops the parse and is named by [label number line]. *)
let parse_facts rel arity label lines =
  let rec go i acc = function
    | [] -> Ok acc
    | line :: rest -> (
      match Dl_proto.parse_fact line with
      | Error m -> Error (Printf.sprintf "%s: %s" (label i line) m)
      | Ok vals when Array.length vals <> arity ->
        Error
          (Printf.sprintf "%s: %d fields, %s has arity %d" (label i line)
             (Array.length vals) rel arity)
      | Ok vals -> go (i + 1) (vals :: acc) rest)
  in
  go 1 [] lines

let finish_load st c p rel arity =
  match p.p_err with
  | Some (code, msg) -> fail c code msg
  | None -> (
    let lines = List.rev p.p_lines in
    let label i _ = Printf.sprintf "fact %d" i in
    match parse_facts rel arity label lines with
    | Error m -> fail c Dl_proto.E_parse m
    | Ok rows -> (
      match
        if rows <> [] then wal_admit st (Wal.Facts (rel, lines)) else Ok ()
      with
      | Error (code, msg) -> fail c code msg
      | Ok () ->
        if rows <> [] then begin
          st.s_batch <- (rel, rows) :: st.s_batch;
          admit_ingest st rel rows p.p_t0
        end;
        respond c
          (Dl_proto.R_ok
             (Printf.sprintf "queued=%d pending=%d" (List.length rows)
                st.s_pending))))

let finish_payload st c p =
  c.c_payload <- None;
  (* the admission hold converts into real pending (on success, inside
     [finish_load]) or evaporates (rejected/poisoned batch) *)
  st.s_reserved <- st.s_reserved - p.p_reserved;
  match p.p_kind with
  | `Rules -> finish_rules st c p
  | `Load (rel, arity) -> finish_load st c p rel arity

let payload_line st c p line =
  p.p_left <- p.p_left - 1;
  p.p_lineno <- p.p_lineno + 1;
  (* poisoning drops what was buffered: a rejected batch must not keep
     holding its lines while framing drains the remainder *)
  let poison code msg =
    p.p_err <- Some (code, msg);
    p.p_lines <- []
  in
  (match p.p_err with
  | Some _ -> () (* poisoned: consume for framing only *)
  | None when String.length line > Dl_proto.max_line ->
    poison Dl_proto.E_proto
      (Printf.sprintf "payload line %d exceeds %d bytes" p.p_lineno
         Dl_proto.max_line)
  | None when p.p_bytes + String.length line > Dl_proto.max_batch_bytes ->
    poison Dl_proto.E_proto
      (Printf.sprintf "batch exceeds %d payload bytes" Dl_proto.max_batch_bytes)
  | None ->
    p.p_bytes <- p.p_bytes + String.length line;
    p.p_lines <- line :: p.p_lines);
  if p.p_left <= 0 then finish_payload st c p

(* Admission checks shared by the ingest verbs; [Error] is the rejection
   to send (or to poison a payload with). *)
let check_ingest st rel n =
  if Chaos.fire Chaos.Point.Server_phase_busy then
    Error (Dl_proto.E_busy, "chaos drill: writer phase saturated, retry")
  else if st.s_pending + st.s_reserved + n > st.s_cfg.max_pending then
    Error
      ( Dl_proto.E_busy,
        Printf.sprintf "pending ingest at cap (%d), retry after a flip"
          st.s_cfg.max_pending )
  else
    match st.s_program with
    | None -> Error (Dl_proto.E_no_program, "no program installed (use RULES)")
    | Some _ -> (
      match decl_arity st rel with
      | None -> Error (Dl_proto.E_relation, "unknown relation " ^ rel)
      | Some arity -> Ok arity)

(* Stop admitting; the loop leaves once every answer is out, or after a
   grace period. *)
let begin_drain st =
  st.s_shutting_down <- true;
  st.s_drain_deadline <- Telemetry.now_ns () + 2_000_000_000

let handle_request st c line =
  st.s_requests <- st.s_requests + 1;
  Telemetry.bump Telemetry.Counter.Server_requests;
  if st.s_shutting_down then
    fail c Dl_proto.E_shutdown "server is draining"
  else
    match Dl_proto.parse_request line with
    | Error msg -> fail c Dl_proto.E_parse msg
    | Ok (Dl_proto.Hello v) ->
      if v = Dl_proto.version then respond c (Dl_proto.R_ok Dl_proto.version)
      else
        fail c Dl_proto.E_proto
          (Printf.sprintf "unsupported protocol %S (speak %s)" v
             Dl_proto.version)
    | Ok Dl_proto.Ping -> respond c (Dl_proto.R_ok "pong")
    | Ok Dl_proto.Stats -> respond c (stats_response st)
    | Ok Dl_proto.Shutdown ->
      begin_drain st;
      respond c (Dl_proto.R_ok "draining")
    | Ok (Dl_proto.Rules n) ->
      let p =
        {
          p_kind = `Rules;
          p_left = n;
          p_lines = [];
          p_bytes = 0;
          p_err = None;
          p_lineno = 0;
          p_reserved = 0;
          p_t0 = Telemetry.now_ns ();
        }
      in
      c.c_payload <- Some p;
      if n = 0 then finish_payload st c p
    | Ok (Dl_proto.Load (rel, n)) ->
      let t0 = Telemetry.now_ns () in
      (* Reserve the announced rows against the admission cap now, not at
         batch completion: traffic interleaved between the header and its
         last payload line must not push pending past [max_pending].  The
         hold is released in [finish_payload] / [close_conn]. *)
      let kind, err, reserved =
        match check_ingest st rel n with
        | Ok arity ->
          st.s_reserved <- st.s_reserved + n;
          (`Load (rel, arity), None, n)
        | Error (code, msg) ->
          if code = Dl_proto.E_busy then note_busy st;
          (`Load (rel, -1), Some (code, msg), 0)
      in
      let p =
        {
          p_kind = kind;
          p_left = n;
          p_lines = [];
          p_bytes = 0;
          p_err = err;
          p_lineno = 0;
          p_reserved = reserved;
          p_t0 = t0;
        }
      in
      c.c_payload <- Some p;
      if n = 0 then finish_payload st c p
    | Ok (Dl_proto.Assert_ (rel, vals)) -> (
      match check_ingest st rel 1 with
      | Error (code, msg) ->
        if code = Dl_proto.E_busy then reject_busy st c msg
        else fail c code msg
      | Ok arity ->
        if Array.length vals <> arity then
          fail c Dl_proto.E_arity
            (Printf.sprintf "%d fields, %s has arity %d" (Array.length vals)
               rel arity)
        else
          match wal_admit st (Wal.Facts (rel, [ fact_line vals ])) with
          | Error (code, msg) -> fail c code msg
          | Ok () ->
            st.s_batch <- (rel, [ vals ]) :: st.s_batch;
            admit_ingest st rel [ vals ] (Telemetry.now_ns ());
            respond c
              (Dl_proto.R_ok
                 (Printf.sprintf "queued=1 pending=%d" st.s_pending)))
    | Ok (Dl_proto.Query (rel, pats)) -> (
      if Chaos.fire Chaos.Point.Server_phase_busy then
        reject_busy st c "chaos drill: reader phase saturated, retry"
      else if Queue.length st.s_queries >= st.s_cfg.max_clients * 4 then
        reject_busy st c "query queue at cap, retry"
      else
        match st.s_program with
        | None ->
          fail c Dl_proto.E_no_program "no program installed (use RULES)"
        | Some _ -> (
          match decl_arity st rel with
          | None ->
            fail c Dl_proto.E_relation ("unknown relation " ^ rel)
          | Some arity when Array.length pats <> arity ->
            fail c Dl_proto.E_arity
              (Printf.sprintf "%d pattern fields, %s has arity %d"
                 (Array.length pats) rel arity)
          | Some _ ->
            Queue.add (c, rel, pats, Telemetry.now_ns ()) st.s_queries))

(* --------------------------------------------------------------- *)
(* Sessions, the loop's hooks and the lifecycle                     *)
(* --------------------------------------------------------------- *)

let reject_line c =
  fail c Dl_proto.E_proto "request line too long";
  Reactor.close_after_flush c.c_rc

let session st rc =
  let c = { c_rc = rc; c_payload = None } in
  st.s_clients <- st.s_clients + 1;
  st.s_conn_total <- st.s_conn_total + 1;
  Telemetry.bump Telemetry.Counter.Server_conns;
  Reactor.send rc (Dl_proto.greeting ^ "\n");
  {
    Reactor.line =
      (fun line ->
        match c.c_payload with
        | Some p -> payload_line st c p line
        | None when String.length line > Dl_proto.max_line -> reject_line c
        | None -> handle_request st c line);
    overlong = (fun () -> reject_line c);
    ready =
      (fun () ->
        if Chaos.fire Chaos.Point.Server_conn_drop then Reactor.close rc);
    (* a session dropped mid-LOAD gives back its admission hold *)
    closed =
      (fun () ->
        st.s_clients <- st.s_clients - 1;
        Option.iter
          (fun p -> st.s_reserved <- st.s_reserved - p.p_reserved)
          c.c_payload);
  }

(* Runs a due flip and the queued queries, commits the flip, then sleeps
   until the next flip deadline.  The commit comes after the answers: a
   query reads the engine the flip just evaluated, never the log, so its
   reply is on the socket before the group-commit fsync starts.  Once
   draining, the loop leaves when every answer is out (final flip, its
   commit and queries included) or the grace period lapsed. *)
let tick st r =
  let now = Telemetry.now_ns () in
  if
    st.s_shutting_down
    && ((Reactor.flushed r
        && Queue.is_empty st.s_queries
        && (st.s_pending = 0 || st.s_program = None))
       || now > st.s_drain_deadline)
  then None
  else begin
    let flipped = flip_due st now && do_flip st in
    run_queries st;
    if flipped then wal_flip st;
    if st.s_shutting_down then Some 0.05
    else if st.s_pending > 0 && st.s_oldest_pending < max_int then
      (* a post-failure backoff supersedes the age trigger *)
      let deadline =
        max
          (st.s_oldest_pending + (st.s_cfg.flip_interval_ms * 1_000_000))
          st.s_retry_at
      in
      let left = float_of_int (deadline - now) /. 1e9 in
      Some (Float.min 0.25 (Float.max 0.0 left))
    else Some 0.25
  end

let hooks st () =
  install_gauges st;
  {
    Reactor.accept =
      (fun ~full rc ->
        let refuse code msg =
          Error (render_line (Dl_proto.R_err (code, msg)))
        in
        if st.s_shutting_down then
          refuse Dl_proto.E_shutdown "server is draining"
        else if full then begin
          note_busy st;
          refuse Dl_proto.E_busy "too many clients"
        end
        else Ok (session st rc));
    tick = tick st;
    stop = (fun () -> begin_drain st);
    (* flush acked-but-unsynced records and release the data-dir lock: a
       graceful stop (SHUTDOWN, or SIGTERM/SIGINT via [signal_stop])
       leaves a clean, immediately recoverable log *)
    finish =
      (fun () ->
        Option.iter Wal.close st.s_wal;
        clear_gauges st;
        Pool.shutdown st.s_pool);
  }

type t = { t_bound : Telemetry_server.addr; t_reactor : Reactor.t }

(* Fold one recovered WAL record into pre-serve state, as {!Wal.open_dir}
   decodes it: facts go straight into the engine's queue, interned in
   the order a flip would intern them, and the first tick evaluates them.
   Only content the live admission path validated is ever logged, so a
   failure here means the log is inconsistent with the running binary (or
   corruption slid past the CRC) — recovery stops and the server refuses
   to serve rather than guess. *)
let[@lint.allow
    "wal-before-ack: recovery replays entries that are already in the \
     WAL; re-appending them would duplicate the log"] replay_entry st e =
  match e with
  | Wal.Anchor seq ->
    (* a snapshot supersedes everything replayed so far *)
    st.s_program <- None;
    st.s_program_text <- None;
    st.s_decls <- [];
    st.s_engine <- None;
    Hashtbl.reset st.s_col_kinds;
    st.s_gen_seq <- max st.s_gen_seq seq;
    Ok ()
  | Wal.Commit seq ->
    st.s_gen_seq <- max st.s_gen_seq seq;
    Ok ()
  | Wal.Rules text -> (
    match Parser.parse_string ~filename:"<wal>" text with
    | exception Parser.Syntax_error { line; col; message } ->
      Error
        (Printf.sprintf "logged program does not parse (%d:%d: %s)" line col
           message)
    | exception e -> Error (Printexc.to_string e)
    | prog -> (
      match install_program st prog (List.length prog.Ast.rules) with
      | exception e ->
        Error ("logged program does not compile: " ^ Printexc.to_string e)
      | _ ->
        st.s_program_text <- Some text;
        Ok ()))
  | Wal.Facts (rel, lines) -> (
    match (decl_arity st rel, st.s_engine) with
    | None, _ | _, None ->
      Error (Printf.sprintf "logged facts for undeclared relation %s" rel)
    | Some arity, Some e -> (
      let label _ line = Printf.sprintf "logged fact %S" line in
      match parse_facts rel arity label lines with
      | Error m -> Error m
      | Ok rows ->
        note_columns st rel rows;
        queue_rows e rel rows;
        Ok ()))

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let pool = Pool.create (max 1 cfg.workers) in
  let st =
    {
      s_cfg = cfg;
      s_pool = pool;
      s_batch = [];
      s_col_kinds = Hashtbl.create 16;
      s_queries = Queue.create ();
      s_wal = None;
      s_recovery = None;
      s_wal_errors = 0;
      s_program_text = None;
      s_program = None;
      s_decls = [];
      s_engine = None;
      s_gen_seq = 0;
      s_stale = false;
      s_pending = 0;
      s_reserved = 0;
      s_pending_t0s = [];
      s_oldest_pending = max_int;
      s_flip_failures = 0;
      s_retry_at = 0;
      s_requests = 0;
      s_busy = 0;
      s_flips = 0;
      s_clients = 0;
      s_conn_total = 0;
      s_phase_violations = 0;
      s_query_examined = 0;
      s_query_rows = 0;
      s_shutting_down = false;
      s_drain_deadline = max_int;
    }
  in
  (* recover the WAL first, replaying it into [st]: a lock conflict or a
     corrupt log must fail before the listen address is taken over *)
  let recovered =
    match cfg.data_dir with
    | None -> Ok ()
    | Some dir ->
      Wal.open_dir ~segment_bytes:cfg.wal_segment_bytes
        ~compact_segments:cfg.wal_compact_segments ~replay:(replay_entry st)
        ~durability:cfg.durability dir
      |> Result.map (fun (w, rv) ->
             st.s_wal <- Some w;
             st.s_recovery <- Some rv;
             (* serve the recovered state: the first tick evaluates one
                writer phase before any query can be answered *)
             if st.s_program <> None then st.s_stale <- true)
  in
  match recovered with
  | Error msg ->
    Pool.shutdown pool;
    Error ("datalog server: " ^ msg)
  | Ok () -> (
    match Telemetry_server.bind_listen cfg.addr with
    | exception e ->
      Option.iter Wal.close st.s_wal;
      Pool.shutdown pool;
      Error
        (Printf.sprintf "datalog server: cannot bind: %s" (Printexc.to_string e))
    | lfd, bound, unlink ->
      Ok
        {
          t_bound = bound;
          t_reactor =
            Reactor.start ?unlink ~max_conns:cfg.max_clients
              ~max_line:Dl_proto.max_line lfd (hooks st);
        })

let bound t = t.t_bound

let wait t =
  try Reactor.wait t.t_reactor
  with e ->
    Telemetry_server.Health.note_uncontained
      ("server domain died: " ^ Printexc.to_string e)

let signal_stop t = Reactor.signal_stop t.t_reactor

let stop t =
  signal_stop t;
  wait t
