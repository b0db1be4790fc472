(** Rule compilation: from the checked AST to executable join plans.

    Each rule body becomes a sequence of steps executed as nested loops
    (the paper's Fig. 1 loop nest, generalised):

    - a {e match} step scans the tuples of a relation whose {e bound}
      columns (constants and variables bound by earlier steps) equal the
      current environment's values — realised as one range scan of the
      index {!Relation.serve} picks for them, which checks per tuple the
      bound columns that index's key does not start with — binding the
      free columns into environment slots;
    - a {e negation} step checks that a fully bound tuple is absent.

    For semi-naive evaluation every rule is compiled several times: a seed
    version (all literals read the full relations) and, per positive body
    literal, a delta variant in which that literal reads the delta relation
    and is rotated to the front — making the delta the outer, parallelised
    loop, as in the paper's parallelisation of Fig. 1.  Variants over the
    rule's own stratum drive the recursive rounds; variants over a lower
    stratum (or an input) seed an incremental run with what changed
    below. *)

exception Compile_error of string

type src =
  | Const of int
  | Slot of int
  | SAdd of src * src  (** arithmetic over already-bound sources *)
  | SSub of src * src
  | SMul of src * src

type match_step = {
  m_pred : int;
  m_delta : bool;           (** read the delta version of the relation *)
  m_sig : int array;        (** bound columns, strictly increasing *)
  m_bound : src array;      (** value sources for [m_sig], same order *)
  m_checks : (int * src) array;
      (** within-literal equalities: column must equal the source's value
          (evaluated after this step's binds) *)
  m_binds : (int * int) array; (** (column, slot) pairs to bind *)
}

type step =
  | SMatch of match_step
  | SNeg of { n_pred : int; n_bound : src array } (** absence check *)
  | SCmp of { c_op : Ast.cmpop; c_lhs : src; c_rhs : src }
      (** constraint over bound sources *)
  | SBind of { b_slot : int; b_src : src }
      (** assignment [x = e] binding a fresh slot *)
  | SAgg of agg_step
      (** aggregate: fold the inner sub-plan, bind (or check) the result *)

and agg_step = {
  a_func : Ast.agg_func;
  a_arg : src option;   (** aggregated expression; [None] for count *)
  a_slot : int;         (** slot receiving the result; [-1] = check instead *)
  a_check : src option; (** when the result variable was already bound *)
  a_steps : step array; (** inner body; reads full relations only *)
}

type crule = {
  cr_head : int;
  cr_head_src : src array;
  cr_steps : step array;
  cr_nslots : int;
  cr_delta : int;
      (** predicate whose delta the first step reads; [-1] for a seed
          version *)
  cr_text : string; (** pretty-printed source rule, for diagnostics *)
}

type t = {
  npreds : int;
  pred_names : string array;
  arities : int array;
  inputs : bool array;
  outputs : bool array;
  strat : Stratify.t;
  facts : (int * int array) list;
  seed_rules : crule list array;  (** per stratum *)
  delta_rules : crule list array;
      (** per stratum: every delta variant, one per positive body literal *)
  sigs_full : int array list array;
      (** per predicate, the signatures of its full relation's match steps
          in seed versions and in delta variants over the rule's own
          stratum.  A variant over a lower stratum runs only when that
          stratum changed, typically by a few tuples, so its steps over full
          relations declare nothing: they read through whichever index
          serves their bound columns best. *)
  sigs_delta : int array list array;
      (** per predicate, the signatures of the match steps that read its
          delta relation *)
}

val compile : Symtab.t -> Ast.program -> t
(** Resolves names, checks arities and rule safety (head and negation
    variables bound by the positive body, in order), stratifies, and plans
    all rule versions.  Symbol constants are interned into [symtab].
    @raise Compile_error on any static error
    @raise Stratify.Not_stratifiable on negative recursion *)

val pred_id : t -> string -> int option
