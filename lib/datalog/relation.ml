type t = {
  name : string;
  arity : int;
  kind : Storage.kind;
  stats : Dl_stats.t option;
  write_lock : Mutex.t option; (* Some for kinds without thread-safe insert *)
  primary : Storage.Index.t;
  secondary : (int array * int) array;
      (* signature -> position of its serving index in [distinct]; several
         signatures may share one index (chain cover, tree kinds only) *)
  distinct : Storage.Index.t array; (* each underlying secondary index once *)
  phase : Sync.Phase_latch.t;
      (* open typed phases: a reader/writer latch word (same packing as
         [Storage.Index.with_phase_check]) *)
}

let shares_indexes = Storage.shares_indexes

let create ?(check_phases = false) ~name ~arity ~kind ~sigs ~stats () =
  let checked i idx =
    if check_phases then
      Storage.Index.with_phase_check
        ~name:(Printf.sprintf "%s[%d]" name i)
        idx
    else idx
  in
  let uniq =
    List.sort_uniq Key.Int_array.compare (List.filter (fun s -> Array.length s > 0) sigs)
  in
  let secondary, distinct =
    if shares_indexes kind then begin
      let plan = Index_selection.solve ~arity uniq in
      let indexes =
        Array.of_list
          (List.mapi
             (fun i order ->
               checked (i + 1)
                 (Storage.Index.create kind ~arity ~cols:[||] ~order ~stats ()))
             plan.Index_selection.orders)
      in
      (Array.of_list plan.Index_selection.assignment, indexes)
    end
    else begin
      ( Array.of_list (List.mapi (fun i cols -> (cols, i)) uniq),
        Array.of_list
          (List.mapi
             (fun i cols ->
               checked (i + 1) (Storage.Index.create kind ~arity ~cols ~stats ()))
             uniq) )
    end
  in
  {
    name;
    arity;
    kind;
    stats;
    write_lock =
      (if Storage.thread_safe_insert kind then None else Some (Mutex.create ()));
    primary = checked 0 (Storage.Index.create kind ~arity ~cols:[||] ~stats ());
    secondary;
    distinct;
    phase = Sync.Phase_latch.make ();
  }

let name t = t.name
let arity t = t.arity
let cardinal t = Storage.Index.cardinal t.primary
let is_empty t = Storage.Index.is_empty t.primary
let iter t f = Storage.Index.iter t.primary f
let mem t tup = Storage.Index.mem t.primary tup

let insert_unlocked t tup =
  let fresh = Storage.Index.insert t.primary tup in
  if fresh then
    Array.iter
      (fun idx -> ignore (Storage.Index.insert idx tup : bool))
      t.distinct;
  fresh

let insert t tup =
  match t.write_lock with
  | None -> insert_unlocked t tup
  | Some m -> Mutex.protect m (fun () -> insert_unlocked t tup)

let hint_counters t =
  let add acc idx =
    match (acc, Storage.Index.hint_counters idx) with
    | None, c -> c
    | Some (h, m), Some (h', m') -> Some (h + h', m + m')
    | Some _, None -> acc
  in
  Array.fold_left (fun acc idx -> add acc idx) (add None t.primary) t.distinct

let shape t = Storage.Index.shape t.primary

let hint_runs t =
  let add acc idx = Storage.Index.merge_runs acc (Storage.Index.hint_runs idx) in
  Array.fold_left (fun acc idx -> add acc idx) (add None t.primary) t.distinct

let index_count t = Array.length t.distinct

let sig_id t cols =
  let n = Array.length t.secondary in
  let rec go i =
    if i = n then raise Not_found
    else if fst t.secondary.(i) = cols then i
    else go (i + 1)
  in
  if Array.length cols = 0 then -1 else go 0

(* A phase handle's access to the relation's indexes.  Each index cursor
   is opened at its first use and only the opened ones are released: on
   the hinted B-tree kinds a cursor is a session, registered under the
   index's lock when it opens and folded into its counters when it is
   released, and most handles touch one or two of a relation's indexes
   (eval opens one reader per rule step and worker).  A signature scans
   through the cursor of its serving index: signatures on one chain share
   that index's session, and with it its hints, as they share its order. *)
module Cursor = struct
  type rel = t

  type t = {
    rel : rel;
    mutable c_primary : Storage.Index.cursor option;
    mutable c_index : Storage.Index.cursor option array;
        (* one slot per index of [rel.distinct]; [||] until a secondary
           index is first used *)
  }

  let create rel = { rel; c_primary = None; c_index = [||] }

  let primary c =
    match c.c_primary with
    | Some cur -> cur
    | None ->
      let cur = Storage.Index.cursor c.rel.primary in
      c.c_primary <- Some cur;
      cur

  let index c j =
    if Array.length c.c_index = 0 then
      c.c_index <- Array.make (Array.length c.rel.distinct) None;
    match c.c_index.(j) with
    | Some cur -> cur
    | None ->
      let cur = Storage.Index.cursor c.rel.distinct.(j) in
      c.c_index.(j) <- Some cur;
      cur

  let count_insert c fresh =
    match c.rel.stats with
    | None -> ()
    | Some s ->
      Sync.Counter.incr s.Dl_stats.inserts;
      if fresh then Sync.Counter.incr s.Dl_stats.produced_tuples

  let insert_unlocked c tup =
    let fresh = Storage.Index.c_insert (primary c) tup in
    if fresh then
      for j = 0 to Array.length c.rel.distinct - 1 do
        ignore (Storage.Index.c_insert (index c j) tup : bool)
      done;
    fresh

  let insert c tup =
    let fresh =
      match c.rel.write_lock with
      | None -> insert_unlocked c tup
      | Some m -> Mutex.protect m (fun () -> insert_unlocked c tup)
    in
    count_insert c fresh;
    fresh

  let mem c tup = Storage.Index.c_mem (primary c) tup

  let release c =
    Option.iter Storage.Index.release c.c_primary;
    Array.iter (Option.iter Storage.Index.release) c.c_index

  let scan c sig_id bound f =
    if sig_id < 0 then Storage.Index.c_scan (primary c) ~cols:[||] bound f
    else begin
      let cols, j = c.rel.secondary.(sig_id) in
      Storage.Index.c_scan (index c j) ~cols bound f
    end

  (* The serving index is chosen here and only here (the rule is in the
     interface).  Ties go to the primary so that its lexicographic row
     order is kept whenever it serves. *)
  let query c pat f =
    let rel = c.rel in
    if Array.length pat <> rel.arity then
      invalid_arg
        (Printf.sprintf "Relation.Reader.query: %d pattern fields, %s has arity %d"
           (Array.length pat) rel.name rel.arity);
    let is_bound col = pat.(col) <> None in
    let value col = Option.get pat.(col) in
    let bound = List.filter is_bound (List.init rel.arity Fun.id) in
    let examined = ref 0 in
    (* range scan of [cur] over the bound prefix [cols]; the bound columns
       outside it are checked per tuple *)
    let scan cur cols =
      let checked =
        Array.of_list (List.filter (fun col -> not (Array.mem col cols)) bound)
      in
      let want = Array.map value checked in
      Storage.Index.c_scan cur ~cols (Array.map value cols) (fun tup ->
          incr examined;
          let ok = ref true in
          Array.iteri (fun j col -> if tup.(col) <> want.(j) then ok := false) checked;
          if !ok then f tup)
    in
    let nbound = List.length bound in
    if nbound > 0 && nbound = rel.arity then begin
      let tup = Array.map Option.get pat in
      if mem c tup then begin
        examined := 1;
        f tup
      end
    end
    else begin
      (* number of leading columns of [order] that are bound *)
      let prefix order =
        let k = ref 0 in
        while !k < Array.length order && is_bound order.(!k) do incr k done;
        !k
      in
      match Storage.Index.order rel.primary with
      | Some order ->
        (* [-1]: the primary *)
        let best = ref (-1, order, prefix order) in
        Array.iteri
          (fun j idx ->
            match Storage.Index.order idx with
            | Some o ->
              let k = prefix o in
              let _, _, best_k = !best in
              if k > best_k then best := (j, o, k)
            | None -> ())
          rel.distinct;
        let j, order, k = !best in
        scan (if j < 0 then primary c else index c j) (Array.sub order 0 k)
      | None -> (
        let cols = Array.of_list bound in
        match
          Array.find_opt (fun (sig_cols, _) -> sig_cols = cols) rel.secondary
        with
        | Some (_, j) -> scan (index c j) cols
        | None -> scan (primary c) [||])
    end;
    !examined
end

(* ---------------- batch merge ---------------- *)

let merge_batch ?pool t tuples =
  if Array.length tuples = 0 then 0
  else begin
    let do_merge () =
      if Array.length t.distinct = 0 then
        Storage.Index.merge ?pool t.primary tuples
      else if shares_indexes t.kind then begin
        (* Tree kinds: every index is a dedup set, so each can merge the
           full array independently (sorting its own copy in its own
           order).  Skipping the primary-freshness gate is equivalent to
           the serial per-tuple path: a tuple already in the primary is
           already in every secondary. *)
        let fresh = Storage.Index.merge ?pool t.primary tuples in
        Array.iter
          (fun idx -> ignore (Storage.Index.merge ?pool idx tuples : int))
          t.distinct;
        fresh
      end
      else begin
        (* Hash kinds: secondaries are multimaps (no dedup), so only
           tuples fresh in the primary may reach them — gate per tuple
           like the serial path, spread on the pool when the kind takes
           concurrent inserts. *)
        match pool with
        | Some p
          when t.write_lock = None
               && Pool.size p > 1
               && Array.length tuples >= 1024 ->
          let fresh = Sync.Counter.make 0 in
          Pool.parallel_for_ranges ~label:"merge" p 0 (Array.length tuples)
            (fun _w lo hi ->
              let f = ref 0 in
              for i = lo to hi - 1 do
                if insert_unlocked t tuples.(i) then incr f
              done;
              Sync.Counter.add fresh !f);
          Sync.Counter.get fresh
        | _ ->
          let fresh = ref 0 in
          Array.iter
            (fun tup -> if insert_unlocked t tup then incr fresh)
            tuples;
          !fresh
      end
    in
    match t.write_lock with
    | None -> do_merge ()
    | Some m -> Mutex.protect m do_merge
  end

(* ---------------- typed two-phase access ---------------- *)

(* In every parallel region a relation is either written or read, never
   both — the contract the B-tree's synchronisation is specialised for.
   [begin_write]/[begin_read] make the phase explicit in the types (a
   Writer cannot scan, a Reader cannot insert) and detect overlap
   dynamically: both phases are counted in one atomic word, so an overlap
   check is a single fetch-and-add with no window. *)

let enter_phase t phase what =
  if not (Sync.Phase_latch.try_enter t.phase phase) then
    raise
      (Storage.Index.Phase_violation
         (Printf.sprintf "%s: begin_%s during an open %s phase" t.name what
            (if what = "write" then "read" else "write")))
  else
    Flight.record Flight.Ev.Phase
      (if phase = Sync.Phase_latch.Write then Flight.phase_write_enter
       else Flight.phase_read_enter)
      0 0

let leave_phase t phase closed =
  if !closed then invalid_arg "Relation: phase handle finished twice";
  closed := true;
  Sync.Phase_latch.leave t.phase phase;
  Flight.record Flight.Ev.Phase
    (if phase = Sync.Phase_latch.Write then Flight.phase_write_leave
     else Flight.phase_read_leave)
    0 0

(* A finished handle no longer holds its phase slot: an operation through
   it would race whatever phase opened since (exactly the overlap the
   phase word exists to exclude), so it is refused eagerly rather than
   left to corrupt silently.  One bool-ref load on the hot path. *)
let check_open name closed what =
  if !closed then
    raise
      (Storage.Index.Phase_violation
         (Printf.sprintf "%s: %s through a finished handle" name what))

module Writer = struct
  type rel = t
  type t = { w_cur : Cursor.t; w_rel : rel; w_closed : bool ref }

  let insert w tup =
    check_open w.w_rel.name w.w_closed "insert";
    Cursor.insert w.w_cur tup

  let insert_batch ?pool w tuples =
    check_open w.w_rel.name w.w_closed "insert_batch";
    merge_batch ?pool w.w_rel tuples

  let finish w =
    leave_phase w.w_rel Sync.Phase_latch.Write w.w_closed;
    Cursor.release w.w_cur
end

module Reader = struct
  type rel = t
  type t = { r_cur : Cursor.t; r_rel : rel; r_closed : bool ref }

  let mem r tup =
    check_open r.r_rel.name r.r_closed "mem";
    Cursor.mem r.r_cur tup

  let scan r sig_id bound f =
    check_open r.r_rel.name r.r_closed "scan";
    Cursor.scan r.r_cur sig_id bound f

  let query r pat f =
    check_open r.r_rel.name r.r_closed "query";
    Cursor.query r.r_cur pat f

  let finish r =
    leave_phase r.r_rel Sync.Phase_latch.Read r.r_closed;
    Cursor.release r.r_cur
end

let begin_write t =
  (* a write may not open while readers are active *)
  enter_phase t Sync.Phase_latch.Write "write";
  { Writer.w_cur = Cursor.create t; w_rel = t; w_closed = ref false }

let begin_read t =
  (* a read may not open while writers are active *)
  enter_phase t Sync.Phase_latch.Read "read";
  { Reader.r_cur = Cursor.create t; r_rel = t; r_closed = ref false }
