(* The three serve workloads: their databases, seeded request rounds
   and the expected answers, computed by an in-process Engine run over
   the same seeded facts (the correctness oracle). *)

type kind = Point_query | Ingest_query | Bulk_load

let of_name = function
  | "point_query" -> Some Point_query
  | "ingest_query" -> Some Ingest_query
  | "bulk_load" -> Some Bulk_load
  | _ -> None

let name = function
  | Point_query -> "point_query"
  | Ingest_query -> "ingest_query"
  | Bulk_load -> "bulk_load"

(* Sizes and rates of one workload.  [full] is what the benchmark runs;
   [tiny] is a scaled-down copy for the tests. *)
type config = {
  kind : kind;
  scale : float; (* generator scale of the base database *)
  probe_pct : int; (* point_query: share of fully bound probes *)
  reads_per_round : int; (* ingest_query: plain queries after the fresh read *)
  batch_rows : int; (* rows per LOAD *)
  base_rows : int; (* bulk_load: rows installed at set-up *)
  cycle_rows : int; (* bulk_load: rows loaded before each restart *)
  warmup_s : float; (* leading part of each epoch's traffic left out of latencies *)
  repeats : int; (* query workloads: epochs per run (bulk_load runs cycles
                    until its time is up); set-ups and restarts are reported
                    as medians over epochs or cycles *)
  restarts : int; (* timed restarts on the data dir per epoch or cycle *)
  threads : int; (* the server's --threads *)
  server_flags : string list; (* beyond --threads/--data-dir/--durability *)
}

let full = function
  | Point_query ->
    {
      kind = Point_query;
      scale = 1.0;
      probe_pct = 10;
      reads_per_round = 0;
      batch_rows = 1000;
      base_rows = 0;
      cycle_rows = 0;
      warmup_s = 0.5;
      repeats = 5;
      restarts = 1;
      threads = 2;
      server_flags = [];
    }
  | Ingest_query ->
    {
      kind = Ingest_query;
      scale = 0.25;
      probe_pct = 0;
      reads_per_round = 10;
      batch_rows = 1000;
      base_rows = 0;
      cycle_rows = 0;
      warmup_s = 0.5;
      repeats = 5;
      restarts = 3;
      threads = 1;
      server_flags = [];
    }
  | Bulk_load ->
    {
      kind = Bulk_load;
      scale = 0.;
      probe_pct = 0;
      reads_per_round = 0;
      batch_rows = 1000;
      base_rows = 5_000;
      cycle_rows = 30_000;
      warmup_s = 0.;
      repeats = 1;
      restarts = 3;
      threads = 1;
      server_flags = [ "--wal-segment-mb"; "1" ];
    }

(* The tests run the server single-threaded: at this size its parallel
   evaluation now and then serves a generation that disagrees with the
   oracle (about one tiny point_query run in seven), which the benchmark
   itself reports as failed answers, but which would make the tests of
   the benchmark's own pieces flaky. *)
let tiny kind =
  let c = { (full kind) with threads = 1 } in
  match kind with
  | Point_query -> { c with scale = 0.1; warmup_s = 0.1 }
  | Ingest_query -> { c with scale = 0.03; reads_per_round = 3; warmup_s = 0.1 }
  | Bulk_load -> { c with batch_rows = 100; base_rows = 300; cycle_rows = 1000 }

(* ------------------------------------------------------------------ *)
(* Programs and facts in protocol surface form                          *)
(* ------------------------------------------------------------------ *)

(* Datalog source of a parsed program, as RULES sends it. *)
let render_program (p : Ast.program) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (d : Ast.decl) ->
      Printf.bprintf b ".decl %s(%s)\n" d.Ast.name
        (String.concat ", "
           (List.init d.Ast.arity (fun i -> Printf.sprintf "c%d:number" i)));
      if d.Ast.is_input then Printf.bprintf b ".input %s\n" d.Ast.name;
      if d.Ast.is_output then Printf.bprintf b ".output %s\n" d.Ast.name)
    p.Ast.decls;
  List.iter
    (fun r -> Buffer.add_string b (Format.asprintf "%a\n" Ast.pp_rule r))
    p.Ast.rules;
  Buffer.contents b

let bulk_source =
  ".decl kv(k:symbol, v:number)\n.input kv\n.decl byv(v:number, k:symbol)\n\
   .output byv\nbyv(v, k) :- kv(k, v).\n"

let row_line vals =
  String.concat " " (Array.to_list (Array.map Dl_proto.value_to_string vals))

(* How the server renders an answer row: integer fields, tab-separated. *)
let answer_line tup =
  String.concat "\t" (Array.to_list (Array.map string_of_int tup))

(* Order-independent identity of an answer: row count and a digest of
   its sorted rows. *)
let answer_key lines =
  let a = Array.of_list lines in
  Array.sort compare a;
  (Array.length a, Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list a))))

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

type expect =
  | Ack  (** an [OK] reply *)
  | Rows of (int * string)  (** a [DATA] reply with this {!answer_key} *)

(* One request: when it is due (seconds from the start of the traffic),
   which connection carries it, what must come back, and whether its
   latency is the workload's timed class.  The closed-loop generator sends
   a request as soon as the previous one is answered and records that
   moment as its due time. *)
type req = { due : float; conn : int; line : string; expect : expect; timed : bool }

(* A database to install: program source and facts per relation in
   admission order. *)
type db = {
  source : string;
  program : Ast.program;
  facts : (string * Dl_proto.value array list) list;
}

let group facts =
  let order = ref [] and tbl = Hashtbl.create 8 in
  List.iter
    (fun (rel, tup) ->
      match Hashtbl.find_opt tbl rel with
      | Some l -> l := tup :: !l
      | None ->
        order := rel :: !order;
        Hashtbl.add tbl rel (ref [ tup ]))
    facts;
  List.rev_map
    (fun rel ->
      ( rel,
        List.rev_map
          (fun t -> Array.map (fun v -> Dl_proto.V_int v) t)
          !(Hashtbl.find tbl rel) ))
    !order

(* [n] bulk_load rows: unique symbol keys, so interning does real work,
   and a small value domain, so byv groups them.  The keys carry ~130
   random bytes, so a 30k-row cycle outgrows four 1 MiB WAL segments and
   the log rotates and compacts within the cycle. *)
let bulk_rows ~prefix n rng =
  let noise () =
    String.concat ""
      (List.init 4 (fun _ -> Digest.to_hex (Digest.string (string_of_int (Rng.next rng)))))
  in
  List.init n (fun i ->
      [| Dl_proto.V_sym (Printf.sprintf "key%s_%06d_%s" prefix i (noise ()));
         Dl_proto.V_int (Rng.int rng 4096) |])

(* The base database is a fixed fixture, generated from this seed, so
   every run measures the same database; the run's seed varies the
   traffic (which keys are asked for, when, and what is ingested). *)
let db_seed = 1

let base_db cfg =
  let rng = Rng.create db_seed in
  match cfg.kind with
  | Point_query ->
    let nc = Network_gen.scaled cfg.scale in
    let program = Network_gen.program in
    { source = render_program program; program;
      facts = group (List.rev (Network_gen.facts nc rng)) }
  | Ingest_query ->
    let pc = Pointsto_gen.scaled cfg.scale in
    let program = Pointsto_gen.program pc in
    { source = render_program program; program;
      facts = group (List.rev (Pointsto_gen.facts pc rng)) }
  | Bulk_load ->
    { source = bulk_source; program = Parser.parse_string bulk_source;
      facts = [ ("kv", bulk_rows ~prefix:"base" cfg.base_rows rng) ] }

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

(* LOAD batches of a fact list: (relation, lines) of at most [n] rows. *)
let batches n facts =
  List.concat_map
    (fun (rel, rows) ->
      List.map (fun c -> (rel, List.map row_line c)) (chunks n rows))
    facts

(* Evaluation on a pool that lives only for the call, so no idle domains
   of the benchmark share the CPUs with the server while it is
   measured. *)
let run_engine ~workers e = Pool.with_pool workers (fun pool -> Engine.run e pool)

(* In-process evaluation of a database: the reference the served answers
   are checked against, sequential so that it does not share a failure
   mode with the server's parallel evaluation. *)
let evaluate db =
  let e = Engine.create db.program in
  List.iter
    (fun (rel, rows) ->
      Engine.add_fact_run e rel
        (Array.of_list
           (List.map
              (Array.map (function
                | Dl_proto.V_int v -> v
                | Dl_proto.V_sym s -> Engine.intern e s))
              rows)))
    db.facts;
  run_engine ~workers:1 e;
  e

(* Answers of [rel] grouped by their first column. *)
let by_first e rel =
  let tbl = Hashtbl.create 1024 in
  Engine.iter_relation e rel (fun t ->
      let l = try Hashtbl.find tbl t.(0) with Not_found -> [] in
      Hashtbl.replace tbl t.(0) (answer_line t :: l));
  tbl

let key_of tbl i =
  answer_key (try Hashtbl.find tbl i with Not_found -> [])

(* The closed-loop traffic of a query workload, as rounds: [rounds cfg e]
   precomputes the expected answers from the oracle [e] and returns the
   generator of round [k], which draws from [rng].  The same seed gives
   the same sequence of rounds; how many of them a run gets through
   depends on the server.  Connection 0 carries queries, connection 1
   ingest.

   point_query: one round is one query, 1 in [probe_pct] of them a fully
   bound probe (half present, half random); every query is timed.

   ingest_query: one round is an ASSERT of a fresh variable (so the base
   answers never change and each ASSERT adds exactly one vpt tuple), the
   fresh read that follows it (its QUERY finds ingest pending and forces
   a flip: the timed class), then [reads_per_round] plain queries that
   find nothing pending. *)
let rounds cfg e =
  match cfg.kind with
  | Point_query ->
    let nc = Network_gen.scaled cfg.scale in
    let tbl = by_first e "reach" in
    let tuples = Array.of_list (Engine.relation_list e "reach") in
    let present = Hashtbl.create (Array.length tuples) in
    Array.iter (fun t -> Hashtbl.replace present (answer_line t) ()) tuples;
    fun rng _ ->
      if Rng.int rng 100 < cfg.probe_pct then begin
        let t =
          if Rng.bool rng && Array.length tuples > 0 then
            tuples.(Rng.int rng (Array.length tuples))
          else
            [| Rng.int rng nc.Network_gen.instances;
               Rng.int rng nc.Network_gen.instances;
               Rng.int rng nc.Network_gen.ports |]
        in
        let row = answer_line t in
        [ { due = 0.; conn = 0; timed = true;
            line = Printf.sprintf "QUERY reach %d %d %d" t.(0) t.(1) t.(2);
            expect = Rows (answer_key (if Hashtbl.mem present row then [ row ] else []));
          } ]
      end
      else
        let i = Rng.int rng nc.Network_gen.instances in
        [ { due = 0.; conn = 0; timed = true; line = Printf.sprintf "QUERY reach %d _ _" i;
            expect = Rows (key_of tbl i) } ]
  | Ingest_query ->
    let pc = Pointsto_gen.scaled cfg.scale in
    let tbl = by_first e "vpt" in
    let query timed rng =
      let v = Rng.int rng pc.Pointsto_gen.variables in
      { due = 0.; conn = 0; timed; line = Printf.sprintf "QUERY vpt %d _" v;
        expect = Rows (key_of tbl v) }
    in
    fun rng k ->
      let ingest =
        { due = 0.; conn = 1; timed = false; expect = Ack;
          line =
            Printf.sprintf "ASSERT new %d %d" (pc.Pointsto_gen.variables + k)
              (Rng.int rng pc.Pointsto_gen.objects) }
      in
      let fresh = query true rng in
      ingest :: fresh :: List.init cfg.reads_per_round (fun _ -> query false rng)
  | Bulk_load -> fun _ _ -> []

(* Expected full answer of [rel] after the run: the base answer plus,
   for vpt, one tuple per acked ASSERT. *)
let full_with e rel acked_lines =
  let rows = ref [] in
  Engine.iter_relation e rel (fun t -> rows := answer_line t :: !rows);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "ASSERT"; "new"; v; o ] when rel = "vpt" -> rows := (v ^ "\t" ^ o) :: !rows
      | _ -> ())
    acked_lines;
  answer_key !rows
