type rule_profile = {
  rp_rule : string;       (* pretty-printed source rule *)
  rp_delta : bool;        (* a semi-naive delta variant? *)
  rp_evaluations : int;   (* times this version was evaluated *)
  rp_seconds : float;     (* cumulative wall time *)
}

(* Evaluate a source into the environment. *)
let rec value env = function
  | Plan.Const c -> c
  | Plan.Slot s -> Array.unsafe_get env s
  | Plan.SAdd (a, b) -> value env a + value env b
  | Plan.SSub (a, b) -> value env a - value env b
  | Plan.SMul (a, b) -> value env a * value env b

let cmp_holds op x y =
  match op with
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y

(* Per-worker execution context for one (sub-)plan: one entry per step.
   Aggregate steps carry a nested context over the same environment.  All
   body relations are accessed through typed read-phase handles — the
   worker cannot accidentally write them.  A step that touches no relation
   (comparison, binding, aggregate) holds no handle. *)
type wctx = {
  env : int array;
  steps : Plan.step array;
  step_readers : Relation.Reader.t option array;
  step_sigids : int array;
  step_scratch : int array array;
  step_sub : wctx option array; (* Some for SAgg *)
}

let reader ctx i =
  match Array.unsafe_get ctx.step_readers i with
  | Some r -> r
  | None -> assert false

(* Execute steps [i..]; [emit] fires once per complete match of the plan. *)
let rec exec ctx i ~emit =
  if i = Array.length ctx.steps then emit ()
  else
    match ctx.steps.(i) with
    | Plan.SMatch m ->
      let bound = ctx.step_scratch.(i) in
      Array.iteri (fun j s -> bound.(j) <- value ctx.env s) m.m_bound;
      Relation.Reader.scan (reader ctx i) ctx.step_sigids.(i) bound
        (fun tup ->
          let nb = Array.length m.m_binds in
          for b = 0 to nb - 1 do
            let col, slot = Array.unsafe_get m.m_binds b in
            ctx.env.(slot) <- tup.(col)
          done;
          let ok = ref true in
          let nc = Array.length m.m_checks in
          for c = 0 to nc - 1 do
            let col, s = Array.unsafe_get m.m_checks c in
            if tup.(col) <> value ctx.env s then ok := false
          done;
          if !ok then exec ctx (i + 1) ~emit)
    | Plan.SNeg n ->
      let probe = ctx.step_scratch.(i) in
      Array.iteri (fun j s -> probe.(j) <- value ctx.env s) n.n_bound;
      if not (Relation.Reader.mem (reader ctx i) probe) then
        exec ctx (i + 1) ~emit
    | Plan.SCmp c ->
      if cmp_holds c.c_op (value ctx.env c.c_lhs) (value ctx.env c.c_rhs) then
        exec ctx (i + 1) ~emit
    | Plan.SBind b ->
      ctx.env.(b.b_slot) <- value ctx.env b.b_src;
      exec ctx (i + 1) ~emit
    | Plan.SAgg a -> (
      let sub =
        match ctx.step_sub.(i) with Some s -> s | None -> assert false
      in
      let result =
        match a.a_func with
        | Ast.Count ->
          let c = ref 0 in
          exec sub 0 ~emit:(fun () -> incr c);
          Some !c
        | Ast.Sum ->
          let arg = Option.get a.a_arg in
          let acc = ref 0 in
          exec sub 0 ~emit:(fun () -> acc := !acc + value ctx.env arg);
          Some !acc
        | Ast.Min | Ast.Max ->
          let arg = Option.get a.a_arg in
          let keep_min = a.a_func = Ast.Min in
          let best = ref None in
          exec sub 0 ~emit:(fun () ->
              let v = value ctx.env arg in
              match !best with
              | None -> best := Some v
              | Some b -> if (if keep_min then v < b else v > b) then best := Some v);
          (* min/max over an empty body: the literal does not fire *)
          !best
      in
      match result with
      | None -> ()
      | Some v ->
        if a.a_slot >= 0 then begin
          ctx.env.(a.a_slot) <- v;
          exec ctx (i + 1) ~emit
        end
        else if v = value ctx.env (Option.get a.a_check) then
          exec ctx (i + 1) ~emit)

(* Apply binds/checks of the (already matched) outer tuple, then run the
   remaining steps. *)
let exec_outer ctx tup ~emit =
  match ctx.steps.(0) with
  | Plan.SMatch m ->
    let nb = Array.length m.m_binds in
    for b = 0 to nb - 1 do
      let col, slot = Array.unsafe_get m.m_binds b in
      ctx.env.(slot) <- tup.(col)
    done;
    let ok = ref true in
    let nc = Array.length m.m_checks in
    for c = 0 to nc - 1 do
      let col, s = Array.unsafe_get m.m_checks c in
      if tup.(col) <> value ctx.env s then ok := false
    done;
    if !ok then exec ctx 1 ~emit
  | Plan.SNeg _ | Plan.SCmp _ | Plan.SBind _ | Plan.SAgg _ -> assert false

(* ------------------------------------------------------------------ *)
(* Resident evaluation state                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  plan : Plan.t;
  kind : Storage.kind;
  stats : Dl_stats.t option;
  check_phases : bool;
  profile : bool;
  fulls : Relation.t array; (* by predicate id; a recomputed one is replaced *)
  bases : Relation.t option array;
      (* the added facts of a predicate that has rules or inline program
         facts, kept apart from its full relation; [None] where the full
         relation holds exactly the added facts *)
  derived : bool array; (* the head of some rule *)
  program_facts : int array array array; (* inline facts, by predicate *)
  pos_deps : int list array; (* per stratum: read by a positive literal *)
  neg_deps : int list array;
      (* per stratum: read through negation or inside an aggregate *)
  recursive : Plan.crule list array;
      (* per stratum: the delta versions over the stratum's own predicates *)
  direct : bool array;
      (* per stratum: no rule reads a predicate of the stratum, so its rules
         write the full relations of their heads, one batch each *)
  read : bool array;
      (* per predicate: some rule reads it, so what it gains in a run seeds
         a later stratum *)
  computed : bool array; (* per stratum: has reached its fixed point once *)
  mutable loaded_program : bool;
  mutable iterations : int;
  prof : (Plan.crule * float ref * int ref) list ref;
}

(* Predicates a stratum's rules read positively, and those they read
   through negation or an aggregate (whose change is not monotone). *)
let deps_of_rules rules =
  let pos = ref [] and neg = ref [] in
  let rec visit ~agg step =
    match step with
    | Plan.SMatch m ->
      if agg then neg := m.Plan.m_pred :: !neg else pos := m.Plan.m_pred :: !pos
    | Plan.SNeg n -> neg := n.n_pred :: !neg
    | Plan.SAgg a -> Array.iter (visit ~agg:true) a.Plan.a_steps
    | Plan.SCmp _ | Plan.SBind _ -> ()
  in
  List.iter (fun cr -> Array.iter (visit ~agg:false) cr.Plan.cr_steps) rules;
  (List.sort_uniq Int.compare !pos, List.sort_uniq Int.compare !neg)

let new_relation ~check_phases ~kind ~stats (plan : Plan.t) ~sigs p =
  Relation.create ~check_phases ~name:plan.Plan.pred_names.(p)
    ~arity:plan.Plan.arities.(p) ~kind ~sigs ~stats ()

let create ?(check_phases = false) (plan : Plan.t) ~kind ~stats ~profile =
  let npreds = plan.Plan.npreds in
  let derived = Array.make npreds false in
  Array.iter
    (List.iter (fun (cr : Plan.crule) -> derived.(cr.cr_head) <- true))
    plan.Plan.seed_rules;
  let program_facts =
    let groups = Array.make npreds [] in
    List.iter (fun (p, tup) -> groups.(p) <- tup :: groups.(p)) plan.Plan.facts;
    Array.map (fun l -> Array.of_list (List.rev l)) groups
  in
  let rel ~sigs p = new_relation ~check_phases ~kind ~stats plan ~sigs p in
  let deps = Array.map deps_of_rules plan.Plan.seed_rules in
  let stratum_of = plan.Plan.strat.Stratify.stratum_of in
  let reads_own s =
    let pos, neg = deps.(s) in
    List.exists (fun q -> stratum_of.(q) = s) (pos @ neg)
  in
  {
    plan;
    kind;
    stats;
    check_phases;
    profile;
    fulls = Array.init npreds (fun p -> rel ~sigs:plan.Plan.sigs_full.(p) p);
    bases =
      Array.init npreds (fun p ->
          if derived.(p) || Array.length program_facts.(p) > 0 then
            Some (rel ~sigs:[] p)
          else None);
    derived;
    program_facts;
    pos_deps = Array.map fst deps;
    neg_deps = Array.map snd deps;
    recursive =
      Array.mapi
        (fun s rules ->
          List.filter
            (fun (cr : Plan.crule) -> stratum_of.(cr.cr_delta) = s)
            rules)
        plan.Plan.delta_rules;
    direct = Array.init (Array.length deps) (fun s -> not (reads_own s));
    read =
      (let read = Array.make npreds false in
       Array.iter
         (fun (pos, neg) -> List.iter (fun q -> read.(q) <- true) (pos @ neg))
         deps;
       read);
    computed = Array.make (Array.length plan.Plan.seed_rules) false;
    loaded_program = false;
    iterations = 0;
    prof = ref [];
  }

let relations t = t.fulls
let iterations t = t.iterations

let iter_base t p f =
  match t.bases.(p) with
  | Some b -> Relation.iter b f
  | None -> Relation.iter t.fulls.(p) f

(* The tuples of [tuples] not yet in [rel], once each, sorted. *)
let fresh_tuples rel tuples =
  let sorted = Array.copy tuples in
  Array.sort Key.Int_array.compare sorted;
  let keep = ref [] in
  Array.iteri
    (fun i tup ->
      if
        (i = 0 || Key.Int_array.compare sorted.(i - 1) tup <> 0)
        && not (Relation.mem rel tup)
      then keep := tup :: !keep)
    sorted;
  Array.of_list (List.rev !keep)

let run t ~pool batch =
  let plan = t.plan and kind = t.kind and stats = t.stats in
  let npreds = plan.Plan.npreds in
  let stratum_of = plan.Plan.strat.Stratify.stratum_of in
  let fulls = t.fulls in
  (* a pool is worth forking for a write only when the batch is large
     enough and the storage kind takes concurrent inserts *)
  let merge_pool cnt =
    if cnt >= 256 && Pool.size pool > 1 && Storage.thread_safe_insert kind
    then Some pool
    else None
  in
  (* the batch write path: each index sorts the tuples in its own order
     and bulk-inserts them, in parallel for large batches *)
  let write rel tuples =
    let w = Relation.begin_write rel in
    Fun.protect
      ~finally:(fun () -> Relation.Writer.finish w)
      (fun () ->
        Relation.Writer.insert_batch ?pool:(merge_pool (Array.length tuples)) w
          tuples)
  in
  let count_input n =
    match stats with
    | Some s -> Sync.Counter.add s.Dl_stats.input_tuples n
    | None -> ()
  in
  let t_eval = Telemetry.span_start () in
  let t_load = Telemetry.span_start () in
  (* Load the batch.  [added.(p)] collects what [p] gained in this run:
     the delta a later stratum that reads [p] positively is seeded with.
     A stratum that has not reached its fixed point yet is computed from
     its bases, so its own full relations are not loaded here.  On the
     first run every stratum is computed that way, so no gain is needed
     and the batch goes straight in without the freshness filter. *)
  let first = not t.loaded_program in
  let added = Array.make npreds [] in
  let groups = Array.make npreds [] in
  List.iter
    (fun (p, run) -> if Array.length run > 0 then groups.(p) <- run :: groups.(p))
    batch;
  for p = 0 to npreds - 1 do
    let asserted = Array.concat groups.(p) in
    (match t.bases.(p) with
    | Some b when Array.length asserted > 0 -> ignore (write b asserted : int)
    | _ -> ());
    let incoming =
      if first then Array.append t.program_facts.(p) asserted else asserted
    in
    if
      Array.length incoming > 0
      && ((not t.derived.(p)) || t.computed.(stratum_of.(p)))
    then
      if first then count_input (write fulls.(p) incoming)
      else
        let fresh = fresh_tuples fulls.(p) incoming in
        if Array.length fresh > 0 then begin
          count_input (write fulls.(p) fresh);
          added.(p) <- [ fresh ]
        end
  done;
  t.loaded_program <- true;
  Telemetry.span_end ~cat:"eval" "eval.load_facts" t_load;
  (* the failed-flip drill: the inputs changed, the fixpoint did not *)
  Chaos.inject Chaos.Point.Server_flip_fail;
  (* delta / new relations of the stratum being evaluated; a delta of a
     lower stratum stays valid for the rest of the run *)
  let deltas = Array.make npreds None in
  let news = Array.make npreds None in
  let fresh_rel p =
    new_relation ~check_phases:t.check_phases ~kind ~stats plan
      ~sigs:plan.Plan.sigs_delta.(p) p
  in
  let the = function Some r -> r | None -> assert false in
  let prof_entry cr =
    match List.find_opt (fun (c, _, _) -> c == cr) !(t.prof) with
    | Some (_, tm, n) -> (tm, n)
    | None ->
      let tm = ref 0.0 and n = ref 0 in
      t.prof := (cr, tm, n) :: !(t.prof);
      (tm, n)
  in
  (* the head tuples a direct stratum's rules emitted this round, by
     head: each worker hands in its own list as it closes *)
  let gained = Array.make npreds [] in
  let gained_lock = Mutex.create () in
  (* Evaluate one compiled rule version, reading delta relations where the
     plan says so, writing into news.(head) — or, in a direct stratum,
     into the head's full relation. *)
  let eval_rule_timed (cr : Plan.crule) =
    let match_rel (m : Plan.match_step) =
      if m.m_delta then the deltas.(m.m_pred) else fulls.(m.m_pred)
    in
    let step_rel step =
      match step with
      | Plan.SMatch m -> Some (match_rel m)
      | Plan.SNeg n -> Some fulls.(n.n_pred)
      | Plan.SCmp _ | Plan.SBind _ | Plan.SAgg _ -> None
    in
    (* resolve signature ids once per rule evaluation; workers then only
       create cursors *)
    let sigids_of steps =
      Array.map
        (fun step ->
          match step with
          | Plan.SMatch m -> Relation.sig_id (match_rel m) m.m_sig
          | Plan.SNeg _ | Plan.SCmp _ | Plan.SBind _ | Plan.SAgg _ -> -1)
        steps
    in
    let scratch_len step =
      match step with
      | Plan.SMatch m -> Array.length m.m_sig
      | Plan.SNeg n -> Array.length n.n_bound
      | Plan.SCmp _ | Plan.SBind _ | Plan.SAgg _ -> 0
    in
    (* every phase handle a worker opens is collected and finished when the
       worker is done — a relation that is a write target this round may be
       a read source next round, so phases must not leak *)
    let rec make_steps_ctx handles env steps =
      {
        env;
        steps;
        step_readers =
          Array.map
            (fun st ->
              Option.map
                (fun rel ->
                  let r = Relation.begin_read rel in
                  handles := (fun () -> Relation.Reader.finish r) :: !handles;
                  r)
                (step_rel st))
            steps;
        step_sigids = sigids_of steps;
        step_scratch = Array.map (fun st -> Array.make (scratch_len st) 0) steps;
        step_sub =
          Array.map
            (fun st ->
              match st with
              | Plan.SAgg a -> Some (make_steps_ctx handles env a.a_steps)
              | _ -> None)
            steps;
      }
    in
    (* per-worker context + emit: build the head tuple, dedup against full,
       insert into new.  Body relations are read handles, the head's new
       relation is the only write handle.  In a direct stratum nothing
       reads the head's full relation, so the worker only collects its
       head tuples and [promote] writes them as one batch. *)
    let head = cr.cr_head in
    let direct = t.direct.(stratum_of.(head)) in
    let make_worker () =
      let handles = ref [] in
      let ctx =
        make_steps_ctx handles (Array.make (max 1 cr.cr_nslots) 0) cr.cr_steps
      in
      let head_tuple () = Array.map (fun s -> value ctx.env s) cr.cr_head_src in
      if direct then begin
        let heads = ref [] in
        let emit () = heads := head_tuple () :: !heads in
        let close () =
          List.iter (fun f -> f ()) !handles;
          if !heads <> [] then
            Mutex.protect gained_lock (fun () ->
                gained.(head) <- !heads :: gained.(head))
        in
        (ctx, emit, close)
      end
      else begin
        let head_writer = Relation.begin_write (the news.(head)) in
        let full_head_reader = Relation.begin_read fulls.(head) in
        let emit () =
          let tup = head_tuple () in
          if not (Relation.Reader.mem full_head_reader tup) then
            ignore (Relation.Writer.insert head_writer tup : bool)
        in
        let close () =
          Relation.Writer.finish head_writer;
          Relation.Reader.finish full_head_reader;
          List.iter (fun f -> f ()) !handles
        in
        (ctx, emit, close)
      end
    in
    (* [close] runs under [Fun.protect]: a worker that dies mid-rule (a
       phase violation, an injected fault) must still release its phase
       handles, or the leaked phase poisons every later round that reopens
       the relation in the other phase. *)
    match cr.cr_steps.(0) with
    | Plan.SNeg _ | Plan.SCmp _ | Plan.SBind _ | Plan.SAgg _ ->
      (* ground prefix (e.g. `p(1) :- !q(2).`): no outer loop to split *)
      let ctx, emit, close = make_worker () in
      Fun.protect ~finally:close (fun () -> exec ctx 0 ~emit)
    | Plan.SMatch m ->
      (* materialise the outer scan, then partition it over the pool *)
      let outer_rel = match_rel m in
      let bound = Array.map (value [||]) m.m_bound in
      (* outer bound sources are constants only: the first literal has no
         previously bound variables; [value] with an empty env would fail on
         slots, which the planner rules out *)
      let outer_reader = Relation.begin_read outer_rel in
      let outer_sig = Relation.sig_id outer_rel m.m_sig in
      let buf = ref [] and n = ref 0 in
      Fun.protect
        ~finally:(fun () -> Relation.Reader.finish outer_reader)
        (fun () ->
          Relation.Reader.scan outer_reader outer_sig bound (fun tup ->
              buf := tup :: !buf;
              incr n));
      if !n > 0 then begin
        let arr = Array.make !n [||] in
        List.iteri (fun i tup -> arr.(i) <- tup) !buf;
        if !n < 64 || Pool.size pool = 1 then begin
          let ctx, emit, close = make_worker () in
          Fun.protect ~finally:close (fun () ->
              Array.iter (fun tup -> exec_outer ctx tup ~emit) arr)
        end
        else
          Pool.parallel_for_ranges ~label:"rule" pool 0 !n (fun _w lo hi ->
              let ctx, emit, close = make_worker () in
              Fun.protect ~finally:close (fun () ->
                  for i = lo to hi - 1 do
                    exec_outer ctx arr.(i) ~emit
                  done))
      end
  in
  let eval_rule cr =
    Telemetry.bump Telemetry.Counter.Eval_rule_evals;
    if t.profile then begin
      let tm, n = prof_entry cr in
      incr n;
      let t0 = Unix.gettimeofday () in
      eval_rule_timed cr;
      tm := !tm +. (Unix.gettimeofday () -. t0)
    end
    else eval_rule_timed cr
  in
  (* The head tuples a direct stratum's workers emitted, in one array. *)
  let emitted_heads lists =
    let heads =
      Array.make (List.fold_left (fun n l -> n + List.length l) 0 lists) [||]
    in
    let i = ref 0 in
    List.iter
      (List.iter (fun tup ->
           heads.(!i) <- tup;
           incr i))
      lists;
    heads
  in
  (* [heads] sorted, once each, without the tuples [full] already holds:
     one membership probe per distinct tuple, none when [full] is empty.
     Sorts and overwrites [heads]. *)
  let fresh_heads full heads =
    Array.sort Key.Int_array.compare heads;
    let check =
      if Relation.is_empty full then None else Some (Relation.begin_read full)
    in
    let k = ref 0 in
    Fun.protect
      ~finally:(fun () -> Option.iter Relation.Reader.finish check)
      (fun () ->
        (* heads.(i - 1) is still the original: writes go to k <= i - 1 *)
        Array.iteri
          (fun i tup ->
            if
              (i = 0 || Key.Int_array.compare heads.(i - 1) tup <> 0)
              &&
              match check with
              | None -> true
              | Some r -> not (Relation.Reader.mem r tup)
            then begin
              heads.(!k) <- tup;
              incr k
            end)
          heads);
    Array.sub heads 0 !k
  in
  (* merge new into full, returning the number of promoted tuples (the
     iteration's delta cardinality; 0 means fixed point); [track] also
     records them as the predicate's gain in this run.  A direct stratum
     has no new relations: the head tuples its rules emitted go into full
     as one batch.  Which of them were fresh is worked out only
     where a later stratum reads the gain; elsewhere the batch write's
     count of fresh tuples is enough. *)
  let promote ~track s stratum =
    let total = ref 0 in
    let gain p arr =
      total := !total + Array.length arr;
      if track then added.(p) <- arr :: added.(p)
    in
    Array.iter
      (fun p ->
        if t.direct.(s) then begin
          if gained.(p) <> [] then begin
            let heads = emitted_heads gained.(p) in
            gained.(p) <- [];
            let emitted = Array.length heads in
            (* unsorted and with duplicates unless a later stratum needs
               the fresh ones: [write] sorts for each index and keeps a
               tuple once *)
            let seeds = track && t.read.(p) in
            let run = if seeds then fresh_heads fulls.(p) heads else heads in
            let fresh = if Array.length run = 0 then 0 else write fulls.(p) run in
            (match stats with
            | Some st ->
              Sync.Counter.add st.Dl_stats.inserts emitted;
              Sync.Counter.add st.Dl_stats.produced_tuples fresh
            | None -> ());
            if seeds && fresh > 0 then gain p run
            else total := !total + fresh
          end
        end
        else begin
          let n = the news.(p) in
          if not (Relation.is_empty n) then begin
            let tuples = ref [] and cnt = ref 0 in
            Relation.iter n (fun tup ->
                tuples := tup :: !tuples;
                incr cnt);
            let arr = Array.make !cnt [||] in
            List.iteri (fun i tup -> arr.(i) <- tup) !tuples;
            (* delta -> full structural merge through the batch write path:
               serial for small deltas and thread-unsafe kinds, partitioned
               over the pool otherwise *)
            ignore (write fulls.(p) arr : int);
            gain p arr
          end;
          deltas.(p) <- news.(p);
          news.(p) <- Some (fresh_rel p)
        end)
      stratum;
    if !total > 0 then Telemetry.add Telemetry.Counter.Eval_delta_tuples !total;
    !total
  in
  (* the full relation of a derived predicate as its stratum starts over:
     its inline and added facts *)
  let rebuilt p =
    let r =
      new_relation ~check_phases:t.check_phases ~kind ~stats plan
        ~sigs:plan.Plan.sigs_full.(p) p
    in
    let facts = ref [ t.program_facts.(p) ] in
    Option.iter
      (fun b ->
        let acc = ref [] in
        Relation.iter b (fun tup -> acc := tup :: !acc);
        facts := Array.of_list !acc :: !facts)
      t.bases.(p);
    let facts = Array.concat !facts in
    if Array.length facts > 0 then count_input (write r facts);
    r
  in
  (* Per stratum, one of three things happens:
     - recompute: the stratum never ran, or a relation it reads through
       negation or an aggregate changed, or one it reads was recomputed.
       Its full relations start over from their facts and the seed rules
       run over them; everything downstream is recomputed too.
     - incremental: only relations it reads positively gained tuples.  The
       delta versions over those relations, each reading what its relation
       gained, make the first round.
     - skip: nothing it reads changed. *)
  let reset = Array.make npreds false in
  let changed q = reset.(q) || added.(q) <> [] in
  let iterations = ref 0 in
  Array.iteri
    (fun s stratum ->
      let seed = plan.Plan.seed_rules.(s) in
      let recompute =
        seed <> []
        && ((not t.computed.(s))
           || List.exists changed t.neg_deps.(s)
           || List.exists (fun q -> reset.(q)) t.pos_deps.(s))
      in
      let first_round =
        if recompute then begin
          Array.iter
            (fun p ->
              fulls.(p) <- rebuilt p;
              reset.(p) <- true)
            stratum;
          seed
        end
        else
          List.filter
            (fun (cr : Plan.crule) -> added.(cr.cr_delta) <> [])
            plan.Plan.delta_rules.(s)
      in
      if first_round <> [] then begin
        let t_stratum = Telemetry.span_start () in
        List.iter
          (fun (cr : Plan.crule) ->
            let q = cr.cr_delta in
            if deltas.(q) = None then begin
              let r = fresh_rel q in
              ignore (write r (Array.concat added.(q)) : int);
              deltas.(q) <- Some r
            end)
          (if recompute then [] else first_round);
        if not t.direct.(s) then
          Array.iter (fun p -> news.(p) <- Some (fresh_rel p)) stratum;
        (* one fixed-point round: evaluate [rules], promote, report delta *)
        let round rules =
          (* histogram timing is counter-gated, span timing trace-gated *)
          let h_round = Telemetry.hist_time () in
          let t_round = Telemetry.span_start () in
          let t_rules = Telemetry.span_start () in
          List.iter eval_rule rules;
          Telemetry.span_end ~cat:"eval" "eval.rules" t_rules;
          incr iterations;
          Telemetry.bump Telemetry.Counter.Eval_iterations;
          let t_promote = Telemetry.span_start () in
          let delta = promote ~track:(not recompute) s stratum in
          Telemetry.span_end ~cat:"eval" "eval.promote" t_promote;
          Telemetry.span_end
            ~args:
              [
                ("stratum", Telemetry.A_int s);
                ("round", Telemetry.A_int !iterations);
                ("delta_tuples", Telemetry.A_int delta);
              ]
            ~cat:"eval" "eval.iteration" t_round;
          Telemetry.hist_end Telemetry.Hist.Eval_iteration_ns h_round;
          delta > 0
        in
        let recursive = t.recursive.(s) in
        let continue = ref (round first_round) in
        while !continue && recursive <> [] do
          continue := round recursive
        done;
        (* release per-stratum scaffolding *)
        Array.iter
          (fun p ->
            deltas.(p) <- None;
            news.(p) <- None)
          stratum;
        Telemetry.span_end
          ~args:[ ("stratum", Telemetry.A_int s) ]
          ~cat:"eval" "eval.stratum" t_stratum
      end;
      if seed <> [] then t.computed.(s) <- true)
    plan.Plan.strat.Stratify.strata;
  t.iterations <- !iterations;
  Telemetry.span_end
    ~args:[ ("iterations", Telemetry.A_int !iterations) ]
    ~cat:"eval" "eval.run" t_eval

let profile t =
  let is_delta (cr : Plan.crule) = cr.cr_delta >= 0 in
  List.sort
    (fun a b -> Float.compare b.rp_seconds a.rp_seconds)
    (List.map
       (fun ((cr : Plan.crule), tm, n) ->
         {
           rp_rule = cr.Plan.cr_text;
           rp_delta = is_delta cr;
           rp_evaluations = !n;
           rp_seconds = !tm;
         })
       !(t.prof))
