type t = {
  symtab : Symtab.t;
  plan : Plan.t;
  kind : Storage.kind;
  stats : Dl_stats.t option;
  eval : Eval.t;
  mutable queued : (int * int array array) list; (* newest first *)
  mutable has_run : bool;
  mutable failed : bool;
}

let pred_id_exn t name =
  match Plan.pred_id t.plan name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Engine: unknown relation %S" name)

let add_fact_run t name run =
  if Array.length run > 0 then begin
    let p = pred_id_exn t name in
    let arity = t.plan.Plan.arities.(p) in
    Array.iter
      (fun tup ->
        if Array.length tup <> arity then
          invalid_arg
            (Printf.sprintf "Engine: %s expects arity %d, got %d" name arity
               (Array.length tup)))
      run;
    t.queued <- (p, run) :: t.queued
  end

let add_fact t name tup = add_fact_run t name [| tup |]

let iter_base t name f =
  let p = pred_id_exn t name in
  Eval.iter_base t.eval p f;
  List.iter (fun (q, run) -> if q = p then Array.iter f run) t.queued

let create ?(kind = Storage.Btree) ?(instrument = false) ?(profile = false)
    ?from program =
  let symtab =
    match from with Some old -> old.symtab | None -> Symtab.create ()
  in
  let plan = Plan.compile symtab program in
  let stats = if instrument then Some (Dl_stats.create ()) else None in
  let t =
    {
      symtab;
      plan;
      kind;
      stats;
      eval = Eval.create plan ~kind ~stats ~profile;
      queued = [];
      has_run = false;
      failed = false;
    }
  in
  Option.iter
    (fun old ->
      Array.iteri
        (fun p name ->
          match Plan.pred_id old.plan name with
          | Some q when old.plan.Plan.arities.(q) = plan.Plan.arities.(p) ->
            let acc = ref [] in
            iter_base old name (fun tup -> acc := tup :: !acc);
            add_fact_run t name (Array.of_list !acc)
          | _ -> ())
        plan.Plan.pred_names)
    from;
  t

let intern t s = Symtab.intern t.symtab s
let find_symbol t s = Symtab.find_opt t.symtab s
let symbols t = Symtab.size t.symtab

let symbol_name t id =
  match Symtab.name t.symtab id with
  | name -> Some name
  | exception Not_found -> None

let run t pool =
  if t.failed then invalid_arg "Engine.run: an earlier run failed";
  t.failed <- true;
  Eval.run t.eval ~pool (List.rev t.queued);
  t.failed <- false;
  t.queued <- [];
  t.has_run <- true

let has_run t = t.has_run
let relation t name = (Eval.relations t.eval).(pred_id_exn t name)
let relation_size t name = Relation.cardinal (relation t name)
let iter_relation t name f = Relation.iter (relation t name) f

let relation_list t name =
  let acc = ref [] in
  iter_relation t name (fun tup -> acc := tup :: !acc);
  List.rev !acc

let output_relations t =
  let out = ref [] in
  Array.iteri
    (fun p o -> if o then out := t.plan.Plan.pred_names.(p) :: !out)
    t.plan.Plan.outputs;
  List.rev !out

let input_relations t =
  let out = ref [] in
  Array.iteri
    (fun p i -> if i then out := t.plan.Plan.pred_names.(p) :: !out)
    t.plan.Plan.inputs;
  List.rev !out

let relations t = Array.to_list t.plan.Plan.pred_names
let relation_arity t name = t.plan.Plan.arities.(pred_id_exn t name)
let iterations t = Eval.iterations t.eval

let hint_rate t =
  let agg =
    Array.fold_left
      (fun acc rel ->
        match (acc, Relation.hint_counters rel) with
        | None, c -> c
        | Some (h, m), Some (h', m') -> Some (h + h', m + m')
        | Some _, None -> acc)
      None (Eval.relations t.eval)
  in
  match agg with
  | None -> None
  | Some (h, m) ->
    if h + m = 0 then Some 0.0
    else Some (float_of_int h /. float_of_int (h + m))

let tree_shapes t =
  Array.to_list (Eval.relations t.eval)
  |> List.filter_map (fun rel ->
         match Relation.shape rel with
         | Some s when s.Tree_shape.nodes > 0 -> Some (Relation.name rel, s)
         | _ -> None)

let hint_run_hist t =
  Array.fold_left
    (fun acc rel -> Storage.Index.merge_runs acc (Relation.hint_runs rel))
    None (Eval.relations t.eval)

let stats t = Option.map Dl_stats.snapshot t.stats
let rule_profile t = Eval.profile t.eval
let kind t = t.kind
