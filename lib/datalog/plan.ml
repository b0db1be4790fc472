exception Compile_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

type src =
  | Const of int
  | Slot of int
  | SAdd of src * src
  | SSub of src * src
  | SMul of src * src

type match_step = {
  m_pred : int;
  m_delta : bool;
  m_sig : int array;
  m_bound : src array;
  m_checks : (int * src) array;
  m_binds : (int * int) array;
}

type step =
  | SMatch of match_step
  | SNeg of { n_pred : int; n_bound : src array }
  | SCmp of { c_op : Ast.cmpop; c_lhs : src; c_rhs : src }
  | SBind of { b_slot : int; b_src : src }
  | SAgg of agg_step

and agg_step = {
  a_func : Ast.agg_func;
  a_arg : src option;   (* None for count *)
  a_slot : int;         (* slot receiving the result; -1 = check instead *)
  a_check : src option; (* when the result variable was already bound *)
  a_steps : step array; (* the aggregate's inner body (reads full only) *)
}

type crule = {
  cr_head : int;
  cr_head_src : src array;
  cr_steps : step array;
  cr_nslots : int;
  cr_delta : int;
  cr_text : string;
}

type t = {
  npreds : int;
  pred_names : string array;
  arities : int array;
  inputs : bool array;
  outputs : bool array;
  strat : Stratify.t;
  facts : (int * int array) list;
  seed_rules : crule list array;
  delta_rules : crule list array;
  sigs_full : int array list array;
  sigs_delta : int array list array;
}

let rule_text r = Format.asprintf "%a" Ast.pp_rule r

(* ------------------------------------------------------------------ *)
(* Predicate resolution                                               *)
(* ------------------------------------------------------------------ *)

type predtab = {
  ids : (string, int) Hashtbl.t;
  mutable names : string list; (* reversed *)
  ars : (int, int) Hashtbl.t;  (* id -> arity; -1 = not yet known *)
  mutable n : int;
}

let resolve_pred pt name arity =
  match Hashtbl.find_opt pt.ids name with
  | Some id ->
    let known = try Hashtbl.find pt.ars id with Not_found -> -1 in
    if known >= 0 && arity >= 0 && known <> arity then
      err "predicate %s used with arity %d but declared with arity %d" name
        arity known;
    if known < 0 && arity >= 0 then Hashtbl.replace pt.ars id arity;
    id
  | None ->
    let id = pt.n in
    pt.n <- id + 1;
    Hashtbl.add pt.ids name id;
    pt.names <- name :: pt.names;
    Hashtbl.replace pt.ars id arity;
    id

(* ------------------------------------------------------------------ *)
(* Rule compilation                                                   *)
(* ------------------------------------------------------------------ *)

exception Unbound of string

(* Compile one ordering of a rule body.  [delta_first] marks the first
   literal as reading the delta relation. *)
let compile_order symtab ~pred_of ~head ~body ~delta_first ~text =
  let slots : (string, int) Hashtbl.t ref = ref (Hashtbl.create 8) in
  let nslots = ref 0 in
  let fresh_slot () =
    let s = !nslots in
    incr nslots;
    s
  in
  (* compile a term whose variables are all bound; raises [Unbound] *)
  let rec cterm = function
    | Ast.Int n -> Const n
    | Ast.Sym s -> Const (Symtab.intern symtab s)
    | Ast.Var v -> (
      match Hashtbl.find_opt !slots v with
      | Some slot -> Slot slot
      | None -> raise (Unbound v))
    | Ast.Add (a, b) -> SAdd (cterm a, cterm b)
    | Ast.Sub (a, b) -> SSub (cterm a, cterm b)
    | Ast.Mul (a, b) -> SMul (cterm a, cterm b)
  in
  let rec compile_literal ~is_delta steps lit =
    match lit with
    | Ast.Pos atom ->
      let bound = ref [] (* (col, src), bound before this literal *)
      and checks = ref []
      and binds = ref [] in
      let seen_here : (string, int) Hashtbl.t = Hashtbl.create 4 in
      List.iteri
        (fun col arg ->
          match arg with
          | Ast.Var v -> (
            match Hashtbl.find_opt !slots v with
            | Some slot -> bound := (col, Slot slot) :: !bound
            | None -> (
              match Hashtbl.find_opt seen_here v with
              | Some slot -> checks := (col, Slot slot) :: !checks
              | None ->
                let slot = fresh_slot () in
                Hashtbl.add seen_here v slot;
                binds := (col, slot) :: !binds))
          | t -> (
            match cterm t with
            | s -> bound := (col, s) :: !bound
            | exception Unbound v ->
              err
                "unsafe rule (arithmetic argument uses unbound variable %s): \
                 %s"
                v text))
        atom.Ast.args;
      (* variables bound by this literal become visible afterwards *)
      Hashtbl.iter (fun v slot -> Hashtbl.replace !slots v slot) seen_here;
      let bound = List.sort (fun (a, _) (b, _) -> compare a b) !bound in
      steps :=
        SMatch
          {
            m_pred = pred_of atom;
            m_delta = is_delta;
            m_sig = Array.of_list (List.map fst bound);
            m_bound = Array.of_list (List.map snd bound);
            m_checks = Array.of_list (List.rev !checks);
            m_binds = Array.of_list (List.rev !binds);
          }
        :: !steps
    | Ast.Neg atom ->
      let n_bound =
        Array.of_list
          (List.map
             (fun arg ->
               match cterm arg with
               | s -> s
               | exception Unbound v ->
                 err
                   "unsafe rule (variable %s of a negated literal is not \
                    bound by the preceding positive body): %s"
                   v text)
             atom.Ast.args)
      in
      steps := SNeg { n_pred = pred_of atom; n_bound } :: !steps
    | Ast.Cmp (op, a, b) -> (
      let ca = try Some (cterm a) with Unbound _ -> None in
      let cb = try Some (cterm b) with Unbound _ -> None in
      match (ca, cb) with
      | Some l, Some r ->
        steps := SCmp { c_op = op; c_lhs = l; c_rhs = r } :: !steps
      | None, Some r -> (
        match (op, a) with
        | Ast.Eq, Ast.Var v ->
          (* assignment form x = e: bind a fresh slot *)
          let slot = fresh_slot () in
          Hashtbl.replace !slots v slot;
          steps := SBind { b_slot = slot; b_src = r } :: !steps
        | _ -> err "unsafe rule (comparison uses unbound variables): %s" text)
      | Some l, None -> (
        match (op, b) with
        | Ast.Eq, Ast.Var v ->
          let slot = fresh_slot () in
          Hashtbl.replace !slots v slot;
          steps := SBind { b_slot = slot; b_src = l } :: !steps
        | _ -> err "unsafe rule (comparison uses unbound variables): %s" text)
      | None, None ->
        err "unsafe rule (comparison uses unbound variables): %s" text)
    | Ast.Agg g ->
      (* the aggregate body gets its own variable scope: outer bindings are
         visible, inner ones vanish afterwards *)
      let saved = Hashtbl.copy !slots in
      let inner = ref [] in
      List.iter
        (fun l ->
          match l with
          | Ast.Pos _ | Ast.Cmp _ -> compile_literal ~is_delta:false inner l
          | Ast.Neg _ | Ast.Agg _ ->
            err "only positive atoms and constraints inside aggregates: %s"
              text)
        g.Ast.agg_body;
      let a_arg =
        match g.Ast.agg_arg with
        | None ->
          if g.Ast.agg_func <> Ast.Count then
            err "aggregate %s needs an argument: %s"
              (match g.Ast.agg_func with
              | Ast.Min -> "min"
              | Ast.Max -> "max"
              | Ast.Sum -> "sum"
              | Ast.Count -> "count")
              text;
          None
        | Some t -> (
          match cterm t with
          | s -> Some s
          | exception Unbound v ->
            err "unbound variable %s in aggregate argument: %s" v text)
      in
      slots := saved;
      let a_slot, a_check =
        match Hashtbl.find_opt !slots g.Ast.agg_result with
        | Some existing -> (-1, Some (Slot existing))
        | None ->
          let sl = fresh_slot () in
          Hashtbl.replace !slots g.Ast.agg_result sl;
          (sl, None)
      in
      steps :=
        SAgg
          {
            a_func = g.Ast.agg_func;
            a_arg;
            a_slot;
            a_check;
            a_steps = Array.of_list (List.rev !inner);
          }
        :: !steps
  in
  let steps = ref [] in
  List.iteri
    (fun li lit -> compile_literal ~is_delta:(delta_first && li = 0) steps lit)
    body;
  let cr_head_src =
    Array.of_list
      (List.map
         (fun arg ->
           match cterm arg with
           | s -> s
           | exception Unbound v ->
             err
               "unsafe rule (head variable %s is not bound by the positive \
                body): %s"
               v text)
         head.Ast.args)
  in
  let cr_delta =
    match (delta_first, body) with
    | true, Ast.Pos a :: _ -> pred_of a
    | _ -> -1
  in
  {
    cr_head = pred_of head;
    cr_head_src;
    cr_steps = Array.of_list (List.rev !steps);
    cr_nslots = !nslots;
    cr_delta;
    cr_text = text;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                          *)
(* ------------------------------------------------------------------ *)

let compile symtab (prog : Ast.program) =
  let pt =
    { ids = Hashtbl.create 32; names = []; ars = Hashtbl.create 32; n = 0 }
  in
  (* declarations first, so ids are stable and arities known *)
  List.iter
    (fun (d : Ast.decl) -> ignore (resolve_pred pt d.name d.arity : int))
    prog.decls;
  (* collect all atoms to assign remaining ids and check arities *)
  let atom_pred (a : Ast.atom) = resolve_pred pt a.pred (List.length a.args) in
  List.iter
    (fun (r : Ast.rule) ->
      ignore (atom_pred r.head : int);
      let rec visit lit =
        match lit with
        | Ast.Pos a | Ast.Neg a -> ignore (atom_pred a : int)
        | Ast.Cmp _ -> ()
        | Ast.Agg g -> List.iter visit g.Ast.agg_body
      in
      List.iter visit r.body)
    prog.rules;
  let npreds = pt.n in
  let pred_names = Array.of_list (List.rev pt.names) in
  let arities =
    Array.init npreds (fun id ->
        try Hashtbl.find pt.ars id with Not_found -> -1)
  in
  Array.iteri
    (fun i a ->
      if a < 0 then err "unknown arity for predicate %s" pred_names.(i))
    arities;
  let inputs = Array.make npreds false in
  let outputs = Array.make npreds false in
  List.iter
    (fun (d : Ast.decl) ->
      let id = Hashtbl.find pt.ids d.name in
      inputs.(id) <- d.is_input;
      outputs.(id) <- d.is_output)
    prog.decls;
  (* split facts from proper rules; fact arguments may be ground arithmetic *)
  let rec ground_value r = function
    | Ast.Int n -> n
    | Ast.Sym s -> Symtab.intern symtab s
    | Ast.Var v -> err "fact with variable %s: %s" v (rule_text r)
    | Ast.Add (a, b) -> ground_value r a + ground_value r b
    | Ast.Sub (a, b) -> ground_value r a - ground_value r b
    | Ast.Mul (a, b) -> ground_value r a * ground_value r b
  in
  let facts = ref [] and rules = ref [] in
  List.iter
    (fun (r : Ast.rule) ->
      if r.body = [] then begin
        let p = atom_pred r.head in
        let tup =
          Array.of_list (List.map (ground_value r) r.head.Ast.args)
        in
        facts := (p, tup) :: !facts
      end
      else rules := r :: !rules)
    prog.rules;
  let rules = List.rev !rules in
  (* stratification *)
  let edges =
    List.concat_map
      (fun (r : Ast.rule) ->
        let h = atom_pred r.head in
        let rec edges_of lit =
          match lit with
          | Ast.Pos a -> [ (h, atom_pred a, false) ]
          | Ast.Neg a -> [ (h, atom_pred a, true) ]
          | Ast.Cmp _ -> []
          | Ast.Agg g ->
            (* aggregated predicates must be complete before the aggregate
               is taken: stratify them like negated dependencies *)
            List.concat_map
              (fun inner ->
                List.map (fun (a, b, _) -> (a, b, true)) (edges_of inner))
              g.Ast.agg_body
        in
        List.concat_map edges_of r.body)
      rules
  in
  let strat = Stratify.compute ~npreds ~edges in
  let nstrata = Array.length strat.Stratify.strata in
  let seed_rules = Array.make nstrata [] in
  let delta_rules = Array.make nstrata [] in
  let sigs_full = Array.make npreds [] in
  let sigs_delta = Array.make npreds [] in
  (* [~full:false] registers only the delta steps' signatures: a variant
     over a lower stratum runs only when that stratum changed, typically by
     a few tuples, and must not make every relation carry extra indexes
     for it.  Its other steps read through whichever index serves their
     bound columns best and check the rest per tuple. *)
  let add_sigs ~full cr =
    let rec visit stp =
      match stp with
      | SMatch m ->
        if Array.length m.m_sig > 0 then
          if m.m_delta then
            sigs_delta.(m.m_pred) <- m.m_sig :: sigs_delta.(m.m_pred)
          else if full then sigs_full.(m.m_pred) <- m.m_sig :: sigs_full.(m.m_pred)
      | SAgg a -> Array.iter visit a.a_steps
      | SNeg _ | SCmp _ | SBind _ -> ()
    in
    Array.iter visit cr.cr_steps
  in
  List.iter
    (fun (r : Ast.rule) ->
      let h = atom_pred r.head in
      let s = strat.Stratify.stratum_of.(h) in
      let text = rule_text r in
      let seed =
        compile_order symtab ~pred_of:atom_pred ~head:r.head ~body:r.body
          ~delta_first:false ~text
      in
      add_sigs ~full:true seed;
      seed_rules.(s) <- seed :: seed_rules.(s);
      (* delta variants: one per positive literal, rotated to the front so
         the (small) delta drives the outer loop.  Literals over the rule's
         own stratum drive the recursive rounds; the others let a later
         run seed the stratum with what changed below it. *)
      List.iteri
        (fun j lit ->
          match lit with
          | Ast.Pos a ->
            let rotated = lit :: List.filteri (fun i _ -> i <> j) r.body in
            let v =
              compile_order symtab ~pred_of:atom_pred ~head:r.head
                ~body:rotated ~delta_first:true ~text
            in
            let own = strat.Stratify.stratum_of.(atom_pred a) = s in
            add_sigs ~full:own v;
            delta_rules.(s) <- v :: delta_rules.(s)
          | Ast.Neg _ | Ast.Cmp _ | Ast.Agg _ -> ())
        r.body)
    rules;
  {
    npreds;
    pred_names;
    arities;
    inputs;
    outputs;
    strat;
    facts = List.rev !facts;
    seed_rules = Array.map List.rev seed_rules;
    delta_rules = Array.map List.rev delta_rules;
    sigs_full = Array.map (List.sort_uniq compare) sigs_full;
    sigs_delta = Array.map (List.sort_uniq compare) sigs_delta;
  }

let pred_id t name =
  let n = Array.length t.pred_names in
  let rec go i =
    if i = n then None
    else if t.pred_names.(i) = name then Some i
    else go (i + 1)
  in
  go 0
