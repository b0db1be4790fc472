(* Concurrency-discipline linter for this repository.

   Eight rules, checked syntactically over the parsetree (compiler-libs
   [Parse] + [Ast_iterator]), with a whole-repo interprocedural layer:
   pass 1 ({!Lint_summary}) computes per-function effect summaries,
   pass 2 ({!Lint_callgraph}) closes them over the call graph, and the
   rules below consult the closed summaries when a call site cannot be
   judged locally.

   R1 atomic-confinement: [Atomic.*] may only be referenced inside the
      synchronisation modules (lib/optlock, lib/chaos, lib/parallel,
      lib/telemetry, lib/datalog/sync.ml).  Anywhere else the use must be
      refactored behind a sync helper or carry
      [@lint.allow "atomic-confinement: <justification>"] — for this rule
      the justification text is mandatory.

   R2 lease-discipline: a lease bound from [Olock.start_read] must flow
      into [valid] / [end_read] / [try_upgrade_to_write] (or be handed to
      a helper call) on every syntactic path of the binding's body, and
      must not escape into a tuple / record / constructor / array.
      Interprocedurally: handing the lease to a *resolved* local helper
      only counts as consumption when the helper's transitive summary
      validates some lease; an unresolved callee keeps the benefit of
      the doubt.

   R3 no-blocking-under-write-permit: between a successful
      [try_start_write] / [start_write] / [try_upgrade_to_write] and the
      matching [end_write] / [abort_write], deny-listed calls are
      forbidden: pool joins, [Domain.join], [Mutex.lock],
      [Condition.wait], [Unix.*], channel I/O, and [Olock.start_read] on
      another lock.  Interprocedurally: calling any function whose
      *transitive* summary may block is also a finding.

   R4 hygiene: [Obj.magic] is banned everywhere; in the hot modules
      (lib/btree/{btree_core,btree,btree_seq,btree_tuples,key,leaf_pack}.ml,
      lib/datalog/{eval,storage,relation,symtab}.ml) the polymorphic [compare]
      (bare or [Stdlib.compare]) and polymorphic comparison operators
      applied to tuple literals are banned — use [Key.compare] or a
      three-way tuple comparator.

   R5 fd-discipline: a file descriptor bound from a raw opener
      ([Unix.openfile] / [socket] / [accept] / [pipe] / [opendir] /
      [open_in*] / [open_out*]) must be closed, returned, stored, or
      handed to a [with_]-style owner on every syntactic path of its
      scope, or the whole scope must be wrapped in [Fun.protect] whose
      [~finally] closes it.  Even when every path consumes the fd, a
      call that may raise (directly blocking, or transitively
      may-block per the summaries) while the fd is live and unguarded
      by [try]/[match ... with exception] leaks it on the error path.

   R6 wal-before-ack (server files only): admitting state — an
      [admit_ingest] / [install_program] call, or consing rows onto the
      pending batch ([s_batch <- _ :: _]) — must be dominated by a WAL
      append: lexically inside the [Ok]-side of a [match] on a
      wal-appending call, or sequenced after one.  Shrinking the batch
      (a flip applied it, a program change dropped relations) admits
      nothing and is not checked.  This is the PR 9 durability invariant
      (nothing is acked before it is logged), promoted from tests to
      static checking.

   R7 select-loop-purity: inside a binding that performs [Unix.select]
      (the resident server/monitor loops), every call that may block —
      directly or transitively — must go through a function whose
      definition carries [@lint.dispatch "why"], the loop's own
      recursion, [Unix.select] itself, or a close.  Anything else needs
      an inline justification.

   R8 stale-suppression: an [@lint.allow] that matched no finding during
      the file's check is itself a finding — the justification ledger
      stays honest, and malformed payloads are surfaced instead of
      silently ignored.

   Findings are machine-consumable: {!findings_to_json} emits a
   versioned JSON document (via [Telemetry.Json]), {!baseline_of_findings} /
   {!diff_baseline} implement the checked-in-baseline ratchet (CI
   fails only on findings not covered by LINT_BASELINE.json, and the
   covered count can only go down).

   The checker is intentionally a lint, not a proof: it tracks the write
   permit as a single boolean through statement sequences and
   if-branches, resets it at function boundaries, and ignores leases that
   cross function boundaries as parameters (the callee's binding site is
   where the discipline is enforced). *)

open Parsetree

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rule_atomic_confinement = "atomic-confinement"
let rule_lease_discipline = "lease-discipline"
let rule_no_blocking = "no-blocking-under-write-permit"
let rule_hygiene = "hygiene"
let rule_fd_discipline = "fd-discipline"
let rule_wal_before_ack = "wal-before-ack"
let rule_select_purity = "select-loop-purity"
let rule_stale_suppression = "stale-suppression"
let rule_parse_error = "parse-error"

let all_rules =
  [
    rule_atomic_confinement;
    rule_lease_discipline;
    rule_no_blocking;
    rule_hygiene;
    rule_fd_discipline;
    rule_wal_before_ack;
    rule_select_purity;
    rule_stale_suppression;
  ]

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c else compare a.col b.col

(* ------------------------------------------------------------------ *)
(* Path classification                                                 *)
(* ------------------------------------------------------------------ *)

let normalize path =
  String.concat "/" (String.split_on_char '\\' path)

let path_has_segment seg path =
  let parts = String.split_on_char '/' (normalize path) in
  List.mem seg parts

let default_atomic_whitelisted path =
  let p = normalize path in
  path_has_segment "optlock" p || path_has_segment "chaos" p
  || path_has_segment "parallel" p
  || path_has_segment "telemetry" p
  || Filename.basename p = "sync.ml"

let hot_modules =
  [
    "btree_core.ml";
    "btree.ml";
    "btree_seq.ml";
    "btree_tuples.ml";
    "key.ml";
    "leaf_pack.ml";
    "eval.ml";
    "storage.ml";
    "relation.ml";
    "symtab.ml";
  ]

let default_hot path = List.mem (Filename.basename (normalize path)) hot_modules

(* R6 only applies to the resident query server's admission path. *)
let default_server path = Filename.basename (normalize path) = "dl_server.ml"

(* ------------------------------------------------------------------ *)
(* Attribute suppression: [@lint.allow "rule: justification"]          *)
(* ------------------------------------------------------------------ *)

type allow = {
  al_rule : string;
  al_justified : bool;
  al_loc : Location.t;
  mutable al_used : bool;
}

let trim = String.trim

let parse_allow_payload ~loc s =
  match String.index_opt s ':' with
  | None -> { al_rule = trim s; al_justified = false; al_loc = loc; al_used = false }
  | Some i ->
    let rule = trim (String.sub s 0 i) in
    let just = trim (String.sub s (i + 1) (String.length s - i - 1)) in
    { al_rule = rule; al_justified = just <> ""; al_loc = loc; al_used = false }

let allow_of_attribute (attr : attribute) =
  if attr.attr_name.txt <> "lint.allow" then None
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
      Some (parse_allow_payload ~loc:attr.attr_loc s)
    | _ ->
      Some
        {
          al_rule = "malformed";
          al_justified = false;
          al_loc = attr.attr_loc;
          al_used = false;
        }

(* ------------------------------------------------------------------ *)
(* Small parsetree helpers                                             *)
(* ------------------------------------------------------------------ *)

let flatten_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Longident.flatten txt with _ -> [])
  | _ -> []

(* Last component of the callee of an application, provided it is
   module-qualified (e.g. [Olock.start_read] but not a local
   [start_read]). *)
let qualified_callee e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
    match flatten_ident f with
    | _ :: _ :: _ as parts -> Some (List.nth parts (List.length parts - 1))
    | _ -> None)
  | _ -> None

let is_call_of names e =
  match qualified_callee e with Some n -> List.mem n names | None -> false

let is_acquire_stmt e = is_call_of [ "start_write" ] e
let is_release_stmt e = is_call_of [ "end_write"; "abort_write" ] e
let is_try_acquire e =
  is_call_of [ "try_start_write"; "try_upgrade_to_write" ] e

let is_start_read e = is_call_of [ "start_read" ] e

let is_ident_named name e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> n = name
  | _ -> false

(* Immediate sub-expressions of a node, one level deep. *)
let immediate_subexprs e =
  let acc = ref [] in
  let probe =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr probe e;
  List.rev !acc

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

let last_part parts =
  match parts with [] -> "" | _ -> List.nth parts (List.length parts - 1)

let starts_with_with s =
  String.length s >= 5 && String.sub s 0 5 = "with_"

type resolve = string list -> Lint_summary.t option

(* ------------------------------------------------------------------ *)
(* R2: lease consumption / escape analysis                             *)
(* ------------------------------------------------------------------ *)

let arg_is name (_, a) = is_ident_named name a

let validator_names = [ "valid"; "end_read"; "try_upgrade_to_write" ]

(* Does [e] contain a call to one of the validation primitives (on any
   lock)?  A branch guarded by such a call observing failure may abandon
   its lease: an invalidated lease is worthless and carries no cleanup
   obligation. *)
let contains_validator e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if is_call_of validator_names e then found := true;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* Handing a lease to a callee consumes it unless the callee resolves to
   a summary that provably never validates any lease, transitively. *)
let handoff_consumes (resolve : resolve) f =
  match flatten_ident f with
  | [] -> true (* complex callee: benefit of the doubt *)
  | parts when List.mem (last_part parts) validator_names -> true
  | parts -> (
    match resolve parts with
    | None -> true (* stdlib / parameter / unknown: benefit of the doubt *)
    | Some s -> s.Lint_summary.sm_lease)

(* Does [e] consume the lease on every syntactic path?  "Consume" means:
   appear as a direct argument of some application — a validator
   ([valid] / [end_read] / [try_upgrade_to_write]) or a helper call the
   lease is handed off to (provided the helper does not provably ignore
   leases, see {!handoff_consumes}).  Branching nodes consume if their
   scrutinee does, or if every branch does; sequencing nodes if any
   component does.  The failure branch of a validation test is exempt
   (see {!contains_validator}). *)
let rec consumes_on_all_paths resolve name e =
  let ok = consumes_on_all_paths resolve name in
  match e.pexp_desc with
  | Pexp_apply (f, args) when List.exists (arg_is name) args ->
    handoff_consumes resolve f
    || List.exists ok (List.map snd args)
  | Pexp_ifthenelse (c, t, eo) ->
    ok c
    ||
    let exempt_then, exempt_else =
      match c.pexp_desc with
      | Pexp_apply (f, [ (_, inner) ]) when is_ident_named "not" f ->
        (* [if not (Olock.valid ...) then <failure> else ...] *)
        (contains_validator inner, false)
      | _ ->
        (* [if Olock.end_read ... then ... else <failure>] *)
        (false, contains_validator c)
    in
    (ok t || exempt_then)
    && ((match eo with Some el -> ok el | None -> false) || exempt_else)
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
    ok s
    || (cases <> [] && List.for_all (fun c -> ok c.pc_rhs) cases)
  | Pexp_sequence (a, b) -> ok a || ok b
  | Pexp_let (_, vbs, body) ->
    List.exists (fun vb -> ok vb.pvb_expr) vbs || ok body
  | Pexp_while (c, b) -> ok c || ok b
  | Pexp_fun _ | Pexp_function _ ->
    (* A closure body runs at an unknown time; a lease captured there is
       not a validation on this path. *)
    false
  | _ -> List.exists ok (immediate_subexprs e)

(* First location where the lease escapes into a data structure, if
   any. *)
let escape_site name e =
  let found = ref None in
  let note loc = if !found = None then found := Some loc in
  let check_parts loc parts =
    if List.exists (is_ident_named name) parts then note loc
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_tuple els | Pexp_array els -> check_parts e.pexp_loc els
          | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
            check_parts e.pexp_loc
              (match arg.pexp_desc with
              | Pexp_tuple els -> els
              | _ -> [ arg ])
          | Pexp_record (fields, _) ->
            check_parts e.pexp_loc (List.map snd fields)
          | Pexp_setfield (_, _, v) -> check_parts e.pexp_loc [ v ]
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* R3: deny list under a held write permit                             *)
(* ------------------------------------------------------------------ *)

let blocking_unqualified =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "prerr_string";
    "prerr_endline";
    "read_line";
    "input_line";
    "input_char";
    "input_value";
    "really_input";
    "output_string";
    "output_char";
    "output_bytes";
    "output_value";
    "flush";
    "flush_all";
  ]

(* [Some reason] when calling [callee] would block / side-effect while a
   write permit is held. *)
let deny_reason callee =
  match flatten_ident callee with
  | [ "Domain"; "join" ] -> Some "Domain.join blocks on another domain"
  | [ "Mutex"; "lock" ] -> Some "Mutex.lock can block"
  | [ "Condition"; "wait" ] -> Some "Condition.wait blocks"
  | "Unix" :: _ -> Some "Unix syscalls can block"
  | [ "Pool"; f ]
    when List.mem f
           [
             "run";
             "parallel_for";
             "parallel_for_workers";
             "parallel_for_ranges";
             "parallel_reduce";
             "shutdown";
             "with_pool";
           ] ->
    Some (Printf.sprintf "Pool.%s joins worker domains" f)
  | parts when parts <> [] && List.nth parts (List.length parts - 1) = "start_read"
               && List.length parts >= 2 ->
    Some "taking a read lease on another lock while holding a write permit"
  | [ f ] when List.mem f blocking_unqualified ->
    Some (Printf.sprintf "channel I/O (%s)" f)
  | [ ("Printf" | "Format"); ("printf" | "eprintf" | "fprintf") ] ->
    Some "formatted channel I/O"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* R5: fd discipline                                                   *)
(* ------------------------------------------------------------------ *)

let opener_parts e =
  match e.pexp_desc with
  | Pexp_apply (f, _) ->
    let parts = flatten_ident f in
    if Lint_summary.is_opener parts then Some parts else None
  | _ -> None

(* Which bound variables of [pat] hold fds from [opener]?  [Unix.pipe] /
   [socketpair] yield two; [Unix.accept] yields [(fd, addr)] — only the
   first component is an fd. *)
let fd_vars_of opener pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_tuple pats ->
    let vars =
      List.filter_map
        (fun p ->
          match p.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | _ -> None)
        pats
    in
    if opener = [ "Unix"; "pipe" ] || opener = [ "Unix"; "socketpair" ] then
      vars
    else (match vars with v :: _ -> [ v ] | [] -> [])
  | _ -> []

let contains_close_of name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args)
            when Lint_summary.is_closer (flatten_ident f)
                 && List.exists (arg_is name) args ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* [Fun.protect ~finally:(fun () -> ... close fd ...)] anywhere in the
   scope discharges the whole obligation. *)
let fd_fun_protected name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) when flatten_ident f = [ "Fun"; "protect" ] ->
            List.iter
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Labelled "finally" when contains_close_of name a ->
                  found := true
                | _ -> ())
              args
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* Local helpers ([let refuse msg = ... Unix.close fd ...]) that close
   the captured fd: calling one is a consumption. *)
let local_closers_of name e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } when contains_close_of name vb.pvb_expr ->
                  acc := txt :: !acc
                | _ -> ())
              vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !acc

(* Does [e] consume the fd on every syntactic path?  Consumption is
   ownership leaving this scope: a close, storage into a data
   structure, a return in tail position, a hand-off to a [with_]-style
   owner / a local closing helper / a resolved helper that closes fds /
   any callee in tail position. *)
let rec fd_consumed resolve local_closers name ~tail e =
  let sub = fd_consumed resolve local_closers name ~tail:false in
  let ok_tail = fd_consumed resolve local_closers name ~tail in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } when n = name -> tail
  | Pexp_apply (f, args) -> (
    let parts = flatten_ident f in
    let direct_arg = List.exists (arg_is name) args in
    let callee_closes =
      Lint_summary.is_closer parts
      || (parts <> [] && starts_with_with (last_part parts))
      || (match resolve parts with
         | Some s -> s.Lint_summary.sm_direct.Lint_summary.e_fd_close
         | None -> false)
    in
    match parts with
    | [ n ] when List.mem n local_closers -> true
    | _ ->
      (direct_arg && (callee_closes || tail))
      || List.exists sub (f :: List.map snd args))
  | Pexp_tuple els | Pexp_array els ->
    List.exists (is_ident_named name) els || List.exists sub els
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    (match arg.pexp_desc with
    | Pexp_tuple els -> List.exists (is_ident_named name) els
    | _ -> is_ident_named name arg)
    || sub arg
  | Pexp_record (fields, base) ->
    List.exists (fun (_, v) -> is_ident_named name v) fields
    || List.exists sub (List.map snd fields)
    || (match base with Some b -> sub b | None -> false)
  | Pexp_setfield (o, _, v) -> is_ident_named name v || sub o || sub v
  | Pexp_sequence (a, b) -> sub a || ok_tail b
  | Pexp_let (_, vbs, body) ->
    List.exists (fun vb -> sub vb.pvb_expr) vbs || ok_tail body
  | Pexp_ifthenelse (c, t, eo) ->
    sub c
    || (ok_tail t && match eo with Some el -> ok_tail el | None -> false)
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
    sub s || (cases <> [] && List.for_all (fun c -> ok_tail c.pc_rhs) cases)
  | Pexp_while (c, b) -> sub c || sub b
  | Pexp_fun _ | Pexp_function _ -> false
  | _ -> List.exists sub (immediate_subexprs e)

(* Ownership has left [e] for the main path: closed, escaped into a
   data structure, or handed to a [with_] owner / local closer. *)
let fd_released resolve local_closers name e =
  contains_close_of name e
  || escape_site name e <> None
  || fd_consumed resolve local_closers name ~tail:false e

(* May calling [parts] raise?  Proxy: directly blocking (syscalls,
   channel I/O) or transitively may-block per the summaries.  Closes are
   exempt — they are the discharge we are looking for. *)
let risky_reason (resolve : resolve) parts =
  if parts = [] || Lint_summary.is_closer parts then None
  else
    match Lint_summary.block_reason parts with
    | Some r -> Some r
    | None -> (
      match resolve parts with
      | Some s -> s.Lint_summary.sm_block
      | None -> None)

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* First risky call in [e] that is not under a [try] or a
   [match ... with exception ...] (those paths are assumed to clean
   up). *)
let rec unguarded_risky resolve e =
  match e.pexp_desc with
  | Pexp_try _ -> None
  | Pexp_match (_, cases) when List.exists is_exception_case cases -> None
  | Pexp_fun _ | Pexp_function _ -> None
  | Pexp_apply (f, args) -> (
    match risky_reason resolve (flatten_ident f) with
    | Some reason ->
      Some (e.pexp_loc, String.concat "." (flatten_ident f), reason)
    | None ->
      List.fold_left
        (fun acc a ->
          match acc with Some _ -> acc | None -> unguarded_risky resolve a)
        None
        (f :: List.map snd args))
  | _ ->
    List.fold_left
      (fun acc a ->
        match acc with Some _ -> acc | None -> unguarded_risky resolve a)
      None (immediate_subexprs e)

(* Scan the linear spine of the fd's scope: a risky, unguarded call
   sequenced before the point where ownership leaves the scope leaks
   the fd on the error path. *)
let rec fd_risky_scan resolve local_closers name e =
  let released = fd_released resolve local_closers name in
  match e.pexp_desc with
  | Pexp_sequence (a, b) ->
    if released a then None
    else (
      match unguarded_risky resolve a with
      | Some _ as r -> r
      | None -> fd_risky_scan resolve local_closers name b)
  | Pexp_let (_, vbs, body) ->
    let rec over = function
      | [] -> fd_risky_scan resolve local_closers name body
      | vb :: rest ->
        if released vb.pvb_expr then None
        else (
          match unguarded_risky resolve vb.pvb_expr with
          | Some _ as r -> r
          | None -> over rest)
    in
    over vbs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* R6 / R7 site classification                                         *)
(* ------------------------------------------------------------------ *)

(* Does [e] contain a call that (transitively) appends to the WAL? *)
let contains_wal_call (resolve : resolve) e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            let parts = try Longident.flatten txt with _ -> [] in
            if parts = [ "Wal"; "append" ] then found := true
            else
              match resolve parts with
              | Some s when s.Lint_summary.sm_wal -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* A binding is a select loop when [Unix.select] appears in its own
   body — not inside a nested lambda or a nested let-bound function,
   whose select belongs to *them*. *)
let contains_select_directly e =
  let found = ref false in
  let rec go e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ }
      when (try Longident.flatten txt with _ -> []) = [ "Unix"; "select" ] ->
      found := true
    | Pexp_fun _ | Pexp_function _ -> ()
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          match vb.pvb_expr.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ -> go vb.pvb_expr)
        vbs;
      go body
    | _ -> List.iter go (immediate_subexprs e)
  in
  go e;
  !found

let rec strip_funs e =
  match e.pexp_desc with Pexp_fun (_, _, _, b) -> strip_funs b | _ -> e

let is_select_loop vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var _ -> contains_select_directly (strip_funs vb.pvb_expr)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The per-file checker                                                *)
(* ------------------------------------------------------------------ *)

let check_structure ~file ~hot ~atomic_ok ~server ~(resolve : resolve)
    (str : structure) : finding list =
  let findings = ref [] in
  (* Every distinct [@lint.allow] seen, for the R8 stale ledger. *)
  let ledger : (int * int * string, allow) Hashtbl.t = Hashtbl.create 16 in
  (* Active [@lint.allow] suppressions, innermost first. *)
  let allows : allow list ref = ref [] in
  (* Names currently shadowing the polymorphic [compare]. *)
  let shadowed : string list ref = ref [] in
  (* Inside a write-permit critical section? *)
  let held = ref false in
  (* Lexically after a dominating WAL append (R6)? *)
  let walled = ref false in
  (* Name of the enclosing select loop, if any (R7). *)
  let in_select : string option ref = ref None in

  let intern (a : allow) =
    let pos = a.al_loc.Location.loc_start in
    let key = (pos.Lexing.pos_lnum, pos.Lexing.pos_cnum, a.al_rule) in
    match Hashtbl.find_opt ledger key with
    | Some existing -> existing
    | None ->
      Hashtbl.add ledger key a;
      a
  in
  let register_attrs attrs =
    List.map intern (List.filter_map allow_of_attribute attrs)
  in

  let push loc rule message =
    let pos = loc.Location.loc_start in
    findings :=
      {
        file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        rule;
        message;
      }
      :: !findings
  in

  let emit loc rule message =
    let suppression =
      List.find_opt (fun a -> a.al_rule = rule) !allows
    in
    match suppression with
    | Some a when rule <> rule_atomic_confinement || a.al_justified ->
      a.al_used <- true
    | Some a ->
      a.al_used <- true;
      push loc rule
        (message
        ^ " (suppressing atomic-confinement requires a justification: \
           [@lint.allow \"atomic-confinement: why\"])")
    | None -> push loc rule message
  in

  let with_allows attrs body =
    let saved = !allows in
    allows := register_attrs attrs @ !allows;
    body ();
    allows := saved
  in
  let with_shadowed names body =
    let saved = !shadowed in
    shadowed := names @ !shadowed;
    body ();
    shadowed := saved
  in
  let with_held v body =
    let saved = !held in
    held := v;
    body ();
    held := saved
  in
  let with_walled v body =
    let saved = !walled in
    walled := v;
    body ();
    walled := saved
  in
  let with_select v body =
    let saved = !in_select in
    in_select := v;
    body ();
    in_select := saved
  in

  (* --- point checks ------------------------------------------------ *)
  let check_longident loc parts =
    (match parts with
    | "Atomic" :: _ | "Stdlib" :: "Atomic" :: _ ->
      if not atomic_ok then
        emit loc rule_atomic_confinement
          "Atomic.* outside the sync modules; move this behind a Sync \
           helper (lib/datalog/sync.ml) or justify with [@lint.allow \
           \"atomic-confinement: why\"]"
    | _ -> ());
    match parts with
    | [ "Obj"; "magic" ] ->
      emit loc rule_hygiene "Obj.magic is banned in this codebase"
    | [ "compare" ] when hot && not (List.mem "compare" !shadowed) ->
      emit loc rule_hygiene
        "polymorphic compare in a hot module; use Key.compare, \
         Int.compare or a specialised three-way comparator"
    | [ "Stdlib"; "compare" ] when hot ->
      emit loc rule_hygiene
        "Stdlib.compare in a hot module; use Key.compare, Int.compare \
         or a specialised three-way comparator"
    | _ -> ()
  in

  let poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ] in
  let check_apply e =
    match e.pexp_desc with
    | Pexp_apply (f, args) ->
      (if hot then
         match f.pexp_desc with
         | Pexp_ident { txt = Longident.Lident op; _ }
           when List.mem op poly_ops
                && List.exists
                     (fun (_, a) ->
                       match a.pexp_desc with
                       | Pexp_tuple _ -> true
                       | _ -> false)
                     args ->
           emit e.pexp_loc rule_hygiene
             (Printf.sprintf
                "polymorphic (%s) on a tuple in a hot module; compare \
                 components with a specialised comparator"
                op)
         | _ -> ());
      if !held then (
        match deny_reason f with
        | Some reason ->
          emit e.pexp_loc rule_no_blocking
            (Printf.sprintf
               "%s while holding a write permit; hoist it out of the \
                critical section"
               reason)
        | None -> (
          (* interprocedural: the callee's transitive summary *)
          match resolve (flatten_ident f) with
          | Some s when s.Lint_summary.sm_block <> None ->
            emit e.pexp_loc rule_no_blocking
              (Printf.sprintf
                 "call to %s may block (%s) while holding a write permit; \
                  hoist it out of the critical section"
                 s.Lint_summary.sm_key
                 (Option.value ~default:"" s.Lint_summary.sm_block))
          | _ -> ()));
      (* R7: inside a select loop every potentially-blocking call must be
         a sanctioned dispatch point. *)
      (match !in_select with
      | Some loop_name -> (
        let parts = flatten_ident f in
        if
          parts <> [ loop_name ]
          && parts <> [ "Unix"; "select" ]
          && not (Lint_summary.is_closer parts)
        then
          let resolved = resolve parts in
          let sanctioned =
            match resolved with
            | Some s -> s.Lint_summary.sm_dispatch
            | None -> false
          in
          let why =
            match Lint_summary.block_reason parts with
            | Some r -> Some r
            | None -> (
              match resolved with
              | Some s when not s.Lint_summary.sm_dispatch ->
                s.Lint_summary.sm_block
              | _ -> None)
          in
          match why with
          | Some reason when not sanctioned ->
            emit e.pexp_loc rule_select_purity
              (Printf.sprintf
                 "%s may block (%s) inside the %s select loop; route it \
                  through a [@lint.dispatch] point or justify inline"
                 (String.concat "." parts)
                 reason loop_name)
          | _ -> ())
      | None -> ());
      (* R6: admissions must be dominated by a WAL append. *)
      (if server && not !walled then
         match last_part (flatten_ident f) with
         | ("admit_ingest" | "install_program") as callee ->
           emit e.pexp_loc rule_wal_before_ack
             (Printf.sprintf
                "%s without a dominating WAL append; admit through \
                 wal_admit first (wal-before-ack, PR 9 invariant)"
                callee)
         | _ -> ());
      (* [ignore (Olock.start_read l)]: a lease made only to be thrown
         away. *)
      (match (f.pexp_desc, args) with
      | Pexp_ident { txt = Longident.Lident "ignore"; _ }, [ (_, a) ]
        when is_start_read a ->
        emit e.pexp_loc rule_lease_discipline
          "read lease discarded without validation"
      | _ -> ())
    | _ -> ()
  in

  let check_setfield e =
    match e.pexp_desc with
    | Pexp_setfield
        ( _,
          { txt; _ },
          { pexp_desc = Pexp_construct ({ txt = Longident.Lident "::"; _ }, _); _ }
        )
      when server && not !walled -> (
      match (try Longident.flatten txt with _ -> []) with
      | parts when last_part parts = "s_batch" ->
        emit e.pexp_loc rule_wal_before_ack
          "rows added to s_batch without a dominating WAL append; admit \
           through wal_admit first (wal-before-ack, PR 9 invariant)"
      | _ -> ())
    | _ -> ()
  in

  let check_lease_binding vb body =
    if is_start_read vb.pvb_expr then
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt = name; _ } ->
        with_allows vb.pvb_attributes (fun () ->
            (match escape_site name body with
            | Some loc ->
              emit loc rule_lease_discipline
                (Printf.sprintf
                   "lease %s escapes into a data structure; leases are \
                    ephemeral validation tokens"
                   name)
            | None -> ());
            if not (consumes_on_all_paths resolve name body) then
              emit vb.pvb_loc rule_lease_discipline
                (Printf.sprintf
                   "lease %s is not validated (valid/end_read/\
                    try_upgrade_to_write) on every path of its scope"
                   name))
      | Ppat_any ->
        emit vb.pvb_loc rule_lease_discipline
          "read lease discarded without validation"
      | _ -> ()
  in

  (* R5: one fd binding (a let or a match case), analysed over its
     scope. *)
  let check_fd ~opener ~loc name scope =
    if not (fd_fun_protected name scope) then begin
      let local_closers = local_closers_of name scope in
      if not (fd_consumed resolve local_closers name ~tail:true scope) then
        emit loc rule_fd_discipline
          (Printf.sprintf
             "fd %s from %s is not closed (or returned/stored/handed off) \
              on every path of its scope; use Fun.protect or close it on \
              the error paths"
             name
             (String.concat "." opener))
      else
        match fd_risky_scan resolve local_closers name scope with
        | Some (rloc, callee, reason) ->
          emit rloc rule_fd_discipline
            (Printf.sprintf
               "fd %s leaks if %s raises (%s); close %s on the error path \
                or wrap the region in Fun.protect"
               name callee reason name)
        | None -> ()
    end
  in
  let check_fd_bindings vbs body =
    List.iter
      (fun vb ->
        match opener_parts vb.pvb_expr with
        | Some opener ->
          with_allows vb.pvb_attributes (fun () ->
              List.iter
                (fun name ->
                  check_fd ~opener ~loc:vb.pvb_loc name body)
                (fd_vars_of opener vb.pvb_pat))
        | None -> ())
      vbs
  in
  let check_fd_cases scrutinee cases =
    match opener_parts scrutinee with
    | Some opener ->
      List.iter
        (fun c ->
          if not (is_exception_case c) then
            List.iter
              (fun name ->
                check_fd ~opener ~loc:c.pc_lhs.ppat_loc name c.pc_rhs)
              (fd_vars_of opener c.pc_lhs))
        cases
    | None -> ()
  in

  (* Update the held flag after a statement in a sequence. *)
  let update_held stmt =
    if is_acquire_stmt stmt then held := true
    else if is_release_stmt stmt then held := false
  in
  let update_walled stmt =
    if server && contains_wal_call resolve stmt then walled := true
  in

  (* Walk one value binding's right-hand side, entering select-loop mode
     when the binding is one. *)
  let walk_binding it vb =
    let go () = it.Ast_iterator.expr it vb.pvb_expr in
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } when is_select_loop vb ->
      with_select (Some name) go
    | _ -> go ()
  in

  (* --- the iterator ------------------------------------------------ *)
  let rec expr it e =
    with_allows e.pexp_attributes (fun () ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          check_longident e.pexp_loc
            (try Longident.flatten txt with _ -> [])
        | _ -> ());
        check_apply e;
        check_setfield e;
        match e.pexp_desc with
        | Pexp_sequence (a, b) ->
          expr it a;
          update_held a;
          update_walled a;
          expr it b
        | Pexp_let (rf, vbs, body) ->
          let names = List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs in
          let iter_vbs () =
            List.iter
              (fun vb ->
                with_allows vb.pvb_attributes (fun () -> walk_binding it vb))
              vbs
          in
          (match rf with
          | Asttypes.Recursive -> with_shadowed names iter_vbs
          | Asttypes.Nonrecursive -> iter_vbs ());
          List.iter (fun vb -> check_lease_binding vb body) vbs;
          check_fd_bindings vbs body;
          let saved_held = !held in
          let saved_walled = !walled in
          List.iter (fun vb -> update_held vb.pvb_expr) vbs;
          List.iter (fun vb -> update_walled vb.pvb_expr) vbs;
          with_shadowed names (fun () -> expr it body);
          held := saved_held;
          walled := saved_walled
        | Pexp_ifthenelse (c, t, eo) ->
          expr it c;
          let then_held, else_held =
            match c.pexp_desc with
            | _ when is_try_acquire c -> (true, !held)
            | Pexp_apply (f, [ (_, inner) ])
              when is_ident_named "not" f && is_try_acquire inner ->
              (!held, true)
            | _ -> (!held, !held)
          in
          with_held then_held (fun () -> expr it t);
          Option.iter (fun el -> with_held else_held (fun () -> expr it el)) eo
        | Pexp_fun (_, dflt, pat, body) ->
          Option.iter (expr it) dflt;
          it.Ast_iterator.pat it pat;
          with_shadowed (pattern_vars pat) (fun () ->
              with_held false (fun () ->
                  with_walled false (fun () -> expr it body)))
        | Pexp_function cases ->
          with_walled false (fun () -> iter_cases it ~reset_held:true cases)
        | Pexp_match (s, cases) ->
          expr it s;
          check_fd_cases s cases;
          if server && contains_wal_call resolve s then
            with_walled true (fun () ->
                iter_cases it ~reset_held:false cases)
          else iter_cases it ~reset_held:false cases
        | Pexp_try (s, cases) ->
          expr it s;
          iter_cases it ~reset_held:false cases
        | _ -> Ast_iterator.default_iterator.expr it e)
  and iter_cases it ~reset_held cases =
    List.iter
      (fun c ->
        with_shadowed (pattern_vars c.pc_lhs) (fun () ->
            it.Ast_iterator.pat it c.pc_lhs;
            Option.iter (expr it) c.pc_guard;
            if reset_held then with_held false (fun () -> expr it c.pc_rhs)
            else expr it c.pc_rhs))
      cases
  in

  let typ it ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) ->
      (match (try Longident.flatten txt with _ -> []) with
      | "Atomic" :: _ | "Stdlib" :: "Atomic" :: _ ->
        if not atomic_ok then
          emit ty.ptyp_loc rule_atomic_confinement
            "Atomic.t outside the sync modules; wrap the state in a Sync \
             helper type"
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in

  let structure it items =
    let saved_shadowed = !shadowed in
    let saved_allows = !allows in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (rf, vbs) ->
          held := false;
          walled := false;
          let names =
            List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs
          in
          let iter_vbs () =
            List.iter
              (fun vb ->
                with_allows vb.pvb_attributes (fun () ->
                    it.Ast_iterator.pat it vb.pvb_pat;
                    walk_binding it vb))
              vbs
          in
          (match rf with
          | Asttypes.Recursive ->
            shadowed := names @ !shadowed;
            iter_vbs ()
          | Asttypes.Nonrecursive ->
            iter_vbs ();
            shadowed := names @ !shadowed)
        | Pstr_attribute attr ->
          (* A floating [@@@lint.allow "..."] suppresses for the rest of
             the enclosing structure. *)
          (match allow_of_attribute attr with
          | Some a -> allows := intern a :: !allows
          | None -> ())
        | _ -> Ast_iterator.default_iterator.structure_item it item)
      items;
    shadowed := saved_shadowed;
    allows := saved_allows
  in

  let it =
    { Ast_iterator.default_iterator with expr; typ; structure }
  in
  it.Ast_iterator.structure it str;
  (* R8: every registered allow must have matched something. *)
  Hashtbl.iter
    (fun _ a ->
      if not a.al_used then
        push a.al_loc rule_stale_suppression
          (if a.al_rule = "malformed" then
             "malformed [@lint.allow] payload; expected a string \
              \"rule: justification\""
           else
             Printf.sprintf
               "[@lint.allow \"%s\"] suppresses nothing here; remove it or \
                fix the rule name"
               a.al_rule))
    ledger;
  List.sort compare_finding !findings

(* ------------------------------------------------------------------ *)
(* Interface (.mli) checking                                           *)
(* ------------------------------------------------------------------ *)

(* Interfaces are scanned only for parse errors and Obj hygiene (an
   [Obj.t] in a signature launders unsafe casts through every caller).
   R1 deliberately does not apply: exposing an [Atomic.t] at a signature
   is lib/modelcheck's abstraction mechanism, and confinement of *uses*
   is already enforced at every implementation site. *)
let check_signature ~file (sg : signature) : finding list =
  let findings = ref [] in
  let push loc message =
    let pos = loc.Location.loc_start in
    findings :=
      {
        file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        rule = rule_hygiene;
        message;
      }
      :: !findings
  in
  let typ it ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
      match (try Longident.flatten txt with _ -> []) with
      | "Obj" :: _ ->
        push ty.ptyp_loc
          "Obj.* in an interface; unsafe casts must not be part of a \
           module's contract"
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in
  let it = { Ast_iterator.default_iterator with typ } in
  it.Ast_iterator.signature it sg;
  List.sort compare_finding !findings

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let parse_error_finding ~file exn =
  let line, col, msg =
    match Location.error_of_exn exn with
    | Some (`Ok err) ->
      let loc = err.Location.main.Location.loc in
      ( loc.Location.loc_start.Lexing.pos_lnum,
        loc.Location.loc_start.Lexing.pos_cnum
        - loc.Location.loc_start.Lexing.pos_bol,
        Printexc.to_string exn )
    | _ -> (1, 0, Printexc.to_string exn)
  in
  { file; line; col; rule = rule_parse_error; message = msg }

let check_source ?hot ?atomic_ok ?server ~file src =
  let hot = match hot with Some h -> h | None -> default_hot file in
  let atomic_ok =
    match atomic_ok with
    | Some a -> a
    | None -> default_atomic_whitelisted file
  in
  let server =
    match server with Some s -> s | None -> default_server file
  in
  match parse_string ~file src with
  | str ->
    (* Single-file interprocedural environment: enough for local
       helpers, which is what the fixtures and unit checks exercise. *)
    let summaries = Lint_summary.of_structure ~file str in
    let cg = Lint_callgraph.build summaries in
    let ctx = Lint_summary.file_ctx ~file str in
    let resolve = Lint_callgraph.resolver cg ~file ctx in
    check_structure ~file ~hot ~atomic_ok ~server ~resolve str
  | exception exn -> [ parse_error_finding ~file exn ]

let check_interface_source ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.interface lexbuf with
  | sg -> check_signature ~file sg
  | exception exn -> [ parse_error_finding ~file exn ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file ?hot ?atomic_ok ?server path =
  if Filename.check_suffix path ".mli" then
    check_interface_source ~file:path (read_file path)
  else check_source ?hot ?atomic_ok ?server ~file:path (read_file path)

(* Collect the .ml/.mli files under [roots], skipping build artefacts
   and the deliberately-violating lint fixtures. *)
let scan_roots roots =
  let skip_dir name =
    name = "lint_fixtures" || name = "_build"
    || (String.length name > 0 && name.[0] = '.')
  in
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then (
            if not (skip_dir entry) then walk path)
          else if
            Filename.check_suffix entry ".ml"
            || Filename.check_suffix entry ".mli"
          then files := path :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun root ->
      if Sys.file_exists root then
        if Sys.is_directory root then walk root
        else if
          Filename.check_suffix root ".ml"
          || Filename.check_suffix root ".mli"
        then files := root :: !files)
    roots;
  List.rev !files

(* Whole-repo, two-pass check: summarise every implementation, close
   the call graph, then run the rules per file against the global
   environment. *)
let check_roots roots =
  let files = scan_roots roots in
  let parsed =
    List.map
      (fun f ->
        if Filename.check_suffix f ".mli" then (f, `Interface)
        else
          match parse_string ~file:f (read_file f) with
          | str -> (f, `Impl str)
          | exception exn -> (f, `Error exn))
      files
  in
  let summaries =
    List.concat_map
      (fun (f, p) ->
        match p with
        | `Impl str -> Lint_summary.of_structure ~file:f str
        | _ -> [])
      parsed
  in
  let cg = Lint_callgraph.build summaries in
  let findings =
    List.concat_map
      (fun (f, p) ->
        match p with
        | `Interface -> check_file f
        | `Error exn -> [ parse_error_finding ~file:f exn ]
        | `Impl str ->
          let ctx = Lint_summary.file_ctx ~file:f str in
          let resolve = Lint_callgraph.resolver cg ~file:f ctx in
          check_structure ~file:f ~hot:(default_hot f)
            ~atomic_ok:(default_atomic_whitelisted f)
            ~server:(default_server f) ~resolve str)
      parsed
  in
  (files, findings)

(* ------------------------------------------------------------------ *)
(* JSON emission / parsing (Telemetry.Json)                             *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

let jstr = function J.String s -> Some s | _ -> None
let jint = function J.Int i -> Some i | _ -> None
let field j key conv = Option.bind (J.member key j) conv

(* A versioned document: [{"schema": schema, ...fields, key: [items]}],
   one item per line so a checked-in baseline diffs entry by entry. *)
let doc_to_json ~schema fields key items =
  let head = J.to_string (J.Obj (("schema", J.String schema) :: fields)) in
  let body =
    if items = [] then ""
    else "\n  " ^ String.concat ",\n  " (List.map J.to_string items) ^ "\n"
  in
  Printf.sprintf "%s,%s:[%s]}\n"
    (String.sub head 0 (String.length head - 1))
    (J.to_string (J.String key)) body

(* Parse back what [doc_to_json] emitted, one [entry] per item. *)
let doc_of_json ~schema ~key ~what entry src =
  match J.of_string src with
  | exception J.Parse_error msg -> Error msg
  | j -> (
    match field j "schema" jstr with
    | Some s when s = schema -> (
      match J.member key j with
      | Some (J.List items) ->
        let parsed = List.map entry items in
        if List.for_all Option.is_some parsed then
          Ok (List.filter_map Fun.id parsed)
        else Error (Printf.sprintf "malformed %s entry" what)
      | _ -> Error (Printf.sprintf "missing %s array" key))
    | Some s -> Error (Printf.sprintf "unknown schema %S" s)
    | None -> Error "missing schema")

(* --- findings ------------------------------------------------------ *)

let findings_schema = "lint_findings/1"

let findings_to_json findings =
  doc_to_json ~schema:findings_schema
    [ ("count", J.Int (List.length findings)) ]
    "findings"
    (List.map
       (fun f ->
         J.Obj
           [
             ("file", J.String f.file);
             ("line", J.Int f.line);
             ("col", J.Int f.col);
             ("rule", J.String f.rule);
             ("message", J.String f.message);
           ])
       findings)

let finding_of_json j =
  match
    ( field j "file" jstr,
      field j "line" jint,
      field j "col" jint,
      field j "rule" jstr,
      field j "message" jstr )
  with
  | Some file, Some line, Some col, Some rule, Some message ->
    Some { file; line; col; rule; message }
  | _ -> None

let findings_of_json =
  doc_of_json ~schema:findings_schema ~key:"findings" ~what:"finding"
    finding_of_json

(* --- baseline ------------------------------------------------------ *)

let baseline_schema = "lint_baseline/1"

type baseline_entry = {
  be_file : string;
  be_rule : string;
  be_message : string;
  be_count : int;
}

(* Finding identity for the ratchet: (file, rule, message), line/col
   deliberately excluded so unrelated edits above a baselined site do
   not churn the baseline. *)
let finding_key f = (f.file, f.rule, f.message)

let baseline_of_findings findings =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = finding_key f in
      Hashtbl.replace tbl k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    findings;
  Hashtbl.fold
    (fun (be_file, be_rule, be_message) be_count acc ->
      { be_file; be_rule; be_message; be_count } :: acc)
    tbl []
  |> List.sort compare

let baseline_to_json entries =
  doc_to_json ~schema:baseline_schema [] "entries"
    (List.map
       (fun e ->
         J.Obj
           [
             ("file", J.String e.be_file);
             ("rule", J.String e.be_rule);
             ("message", J.String e.be_message);
             ("count", J.Int e.be_count);
           ])
       entries)

let baseline_of_json =
  doc_of_json ~schema:baseline_schema ~key:"entries" ~what:"baseline"
    (fun e ->
      match
        ( field e "file" jstr,
          field e "rule" jstr,
          field e "message" jstr,
          field e "count" jint )
      with
      | Some be_file, Some be_rule, Some be_message, Some be_count ->
        Some { be_file; be_rule; be_message; be_count }
      | _ -> None)

(* The ratchet: findings beyond each key's baselined count are new
   (gate fails); baseline entries whose key now fires fewer times are
   stale (the baseline can be shrunk). *)
let diff_baseline entries findings =
  let budget = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = (e.be_file, e.be_rule, e.be_message) in
      Hashtbl.replace budget k
        (e.be_count + Option.value ~default:0 (Hashtbl.find_opt budget k)))
    entries;
  let current = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun f ->
        let k = finding_key f in
        Hashtbl.replace current k
          (1 + Option.value ~default:0 (Hashtbl.find_opt current k));
        match Hashtbl.find_opt budget k with
        | Some left when left > 0 ->
          Hashtbl.replace budget k (left - 1);
          false
        | _ -> true)
      findings
  in
  let stale =
    List.filter_map
      (fun e ->
        let k = (e.be_file, e.be_rule, e.be_message) in
        let now = Option.value ~default:0 (Hashtbl.find_opt current k) in
        if now < e.be_count then Some (e, now) else None)
      entries
  in
  (fresh, stale)
