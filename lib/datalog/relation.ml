type t = {
  name : string;
  arity : int;
  ordered : bool; (* tree kinds: every index has a total column order *)
  stats : Dl_stats.t option;
  write_lock : Mutex.t option; (* Some for kinds without thread-safe insert *)
  indexes : Storage.Index.t array; (* [indexes.(0)] is the primary *)
  phase : Sync.Phase_latch.t;
      (* open phases: typed handles and quiescent scans, as one
         reader/writer latch word *)
}

exception Phase_violation of string

(* Whether [col] is among [cols] from position [i] on: a loop rather
   than [Array.mem], whose local closure a query would allocate. *)
let rec among (cols : int array) col i =
  i < Array.length cols && (cols.(i) = col || among cols col (i + 1))

(* The number of leading columns of [key] that are in [cols]. *)
let lead_length key cols =
  let k = ref 0 in
  while !k < Array.length key && among cols key.(!k) 0 do incr k done;
  !k

let create ~name ~arity ~kind ~sigs ~stats () =
  let ordered = Storage.shares_indexes kind in
  let uniq =
    List.sort_uniq Key.Int_array.compare (List.filter (fun s -> Array.length s > 0) sigs)
  in
  let primary = Storage.Index.create kind ~arity ~key:[||] ~stats () in
  (* a signature the primary serves in full needs no index of its own *)
  let own =
    List.filter
      (fun s -> lead_length (Storage.Index.key primary) s < Array.length s)
      uniq
  in
  let indexes =
    Array.of_list
      (primary
      :: List.map
           (fun key -> Storage.Index.create kind ~arity ~key ~stats ())
           (if ordered then Index_selection.solve own else own))
  in
  {
    name;
    arity;
    ordered;
    stats;
    write_lock =
      (if Storage.thread_safe_insert kind then None else Some (Mutex.create ()));
    indexes;
    phase = Sync.Phase_latch.make ();
  }

let key t j = Storage.Index.key t.indexes.(j)

(* The serving rule, the one place an index is chosen for a set [cols] of
   bound columns: the index whose key starts with the most of them, ties
   going to the earlier index and so to the primary.  On the hash kinds a
   multimap serves only when its whole key is bound, so the widest such
   multimap serves, else the primary. *)
let serve t cols =
  let best = ref 0 and best_k = ref (lead_length (key t 0) cols) in
  for j = 1 to Array.length t.indexes - 1 do
    let k = lead_length (key t j) cols in
    if k > !best_k && (t.ordered || k = Array.length (key t j)) then begin
      best := j;
      best_k := k
    end
  done;
  (!best - 1, Array.sub (key t !best) 0 !best_k)

let name t = t.name
let arity t = t.arity
let cardinal t = Storage.Index.cardinal t.indexes.(0)
let is_empty t = Storage.Index.is_empty t.indexes.(0)

(* ---------------- the phase latch ---------------- *)

(* In every parallel region a relation is either written or read, never
   both — the contract the B-tree's synchronisation is specialised for.
   [begin_write]/[begin_read] make the phase explicit in the types (a
   Writer cannot scan, a Reader cannot insert) and, with [iter], detect
   overlap dynamically: both phases are counted in one atomic word, so an
   overlap check is a single fetch-and-add with no window. *)

let enter_phase t phase what =
  if not (Sync.Phase_latch.try_enter t.phase phase) then
    raise
      (Phase_violation
         (Printf.sprintf "%s: %s during an open %s phase" t.name what
            (if phase = Sync.Phase_latch.Write then "read" else "write")))
  else
    Flight.record Flight.Ev.Phase
      (if phase = Sync.Phase_latch.Write then Flight.phase_write_enter
       else Flight.phase_read_enter)
      0 0

let leave_phase t phase =
  Sync.Phase_latch.leave t.phase phase;
  Flight.record Flight.Ev.Phase
    (if phase = Sync.Phase_latch.Write then Flight.phase_write_leave
     else Flight.phase_read_leave)
    0 0

let iter t f =
  enter_phase t Sync.Phase_latch.Read "iter";
  Fun.protect
    ~finally:(fun () -> leave_phase t Sync.Phase_latch.Read)
    (fun () -> Storage.Index.iter t.indexes.(0) f)

let hint_counters t =
  let add acc idx =
    match (acc, Storage.Index.hint_counters idx) with
    | None, c -> c
    | Some (h, m), Some (h', m') -> Some (h + h', m + m')
    | Some _, None -> acc
  in
  Array.fold_left add None t.indexes

let shape t = Storage.Index.shape t.indexes.(0)

let hint_runs t =
  Array.fold_left
    (fun acc idx -> Storage.Index.merge_runs acc (Storage.Index.hint_runs idx))
    None t.indexes

let index_count t = Array.length t.indexes - 1

(* Whether [tup] agrees with every bound column of [pat] from [col] on. *)
let rec matches_from pat (tup : int array) col =
  col = Array.length pat
  || (match pat.(col) with Some v -> tup.(col) = v | None -> true)
     && matches_from pat tup (col + 1)

(* A phase handle's access to the relation's indexes.  Each index cursor
   is opened at its first use and only the opened ones are released: on
   the hinted B-tree kinds a cursor is a session, registered under the
   index's lock when it opens and folded into its counters when it is
   released, and most handles touch one or two of a relation's indexes
   (eval opens one reader per rule step and worker).  Every read of one
   index goes through its one cursor: the bound sets that index serves
   share its session, and with it its hints, as they share its order. *)
module Cursor = struct
  type rel = t

  type t = {
    rel : rel;
    mutable c_index : Storage.Index.cursor option array;
        (* one slot per index of [rel.indexes] up to the last one used *)
  }

  let create rel = { rel; c_index = [||] }

  let index c j =
    let n = Array.length c.c_index in
    if j >= n then begin
      let slots = Array.make (j + 1) None in
      Array.blit c.c_index 0 slots 0 n;
      c.c_index <- slots
    end;
    match c.c_index.(j) with
    | Some cur -> cur
    | None ->
      let cur = Storage.Index.cursor c.rel.indexes.(j) in
      c.c_index.(j) <- Some cur;
      cur

  let count_insert c fresh =
    match c.rel.stats with
    | None -> ()
    | Some s ->
      Sync.Counter.incr s.Dl_stats.inserts;
      if fresh then Sync.Counter.incr s.Dl_stats.produced_tuples

  let insert_unlocked c tup =
    let fresh = Storage.Index.c_insert (index c 0) tup in
    if fresh then
      for j = 1 to Array.length c.rel.indexes - 1 do
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

  let mem c tup = Storage.Index.c_mem (index c 0) tup
  let release c = Array.iter (Option.iter Storage.Index.release) c.c_index

  let scan c id prefix f = Storage.Index.c_scan (index c (id + 1)) prefix f

  (* A range scan of the serving index over its lead; every bound column
     is checked per tuple. *)
  let query c pat f =
    let rel = c.rel in
    if Array.length pat <> rel.arity then
      invalid_arg
        (Printf.sprintf "Relation.Reader.query: %d pattern fields, %s has arity %d"
           (Array.length pat) rel.name rel.arity);
    (* a count, not [Array.for_all], whose local closure allocates per call *)
    let nbound = Array.fold_left (fun n v -> if Option.is_some v then n + 1 else n) 0 pat in
    if rel.arity > 0 && nbound = rel.arity then begin
      let tup = Array.map Option.get pat in
      if mem c tup then begin
        f tup;
        1
      end
      else 0
    end
    else begin
      let cols = Array.make nbound 0 and n = ref 0 in
      for col = 0 to rel.arity - 1 do
        if Option.is_some pat.(col) then begin
          cols.(!n) <- col;
          incr n
        end
      done;
      let id, lead = serve rel cols in
      let prefix = Array.make (Array.length lead) 0 in
      for i = 0 to Array.length lead - 1 do
        prefix.(i) <- Option.get pat.(lead.(i))
      done;
      let examined = ref 0 in
      scan c id prefix (fun tup ->
          incr examined;
          if matches_from pat tup 0 then f tup);
      !examined
    end
end

(* ---------------- batch merge ---------------- *)

(* The batch write of [Writer.insert_batch]; [cur] is the writer's
   cursor, for the serial hash path. *)
let merge_batch ?pool cur tuples =
  let t = cur.Cursor.rel in
  if Array.length tuples = 0 then 0
  else begin
    let do_merge () =
      if t.ordered then begin
        (* Tree kinds: every index is a dedup set, so each can merge the
           full array independently (sorting its own copy in its own
           order).  Skipping the primary-freshness gate is equivalent to
           the serial per-tuple path: a tuple already in the primary is
           already in every secondary. *)
        let fresh = Storage.Index.merge ?pool t.indexes.(0) tuples in
        for j = 1 to Array.length t.indexes - 1 do
          ignore (Storage.Index.merge ?pool t.indexes.(j) tuples : int)
        done;
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
              let c = Cursor.create t in
              let f = ref 0 in
              for i = lo to hi - 1 do
                if Cursor.insert_unlocked c tuples.(i) then incr f
              done;
              Cursor.release c;
              Sync.Counter.add fresh !f);
          Sync.Counter.get fresh
        | _ ->
          let fresh = ref 0 in
          Array.iter
            (fun tup -> if Cursor.insert_unlocked cur tup then incr fresh)
            tuples;
          !fresh
      end
    in
    match t.write_lock with
    | None -> do_merge ()
    | Some m -> Mutex.protect m do_merge
  end

(* ---------------- typed two-phase access ---------------- *)

let finish_phase t phase closed =
  if !closed then invalid_arg "Relation: phase handle finished twice";
  closed := true;
  leave_phase t phase

(* A finished handle no longer holds its phase slot: an operation through
   it would race whatever phase opened since (exactly the overlap the
   phase word exists to exclude), so it is refused eagerly rather than
   left to corrupt silently.  One bool-ref load on the hot path. *)
let check_open name closed what =
  if !closed then
    raise
      (Phase_violation
         (Printf.sprintf "%s: %s through a finished handle" name what))

module Writer = struct
  type rel = t
  type t = { w_cur : Cursor.t; w_rel : rel; w_closed : bool ref }

  let insert w tup =
    check_open w.w_rel.name w.w_closed "insert";
    Cursor.insert w.w_cur tup

  let insert_batch ?pool w tuples =
    check_open w.w_rel.name w.w_closed "insert_batch";
    merge_batch ?pool w.w_cur tuples

  let finish w =
    finish_phase w.w_rel Sync.Phase_latch.Write w.w_closed;
    Cursor.release w.w_cur
end

module Reader = struct
  type rel = t
  type t = { r_cur : Cursor.t; r_rel : rel; r_closed : bool ref }

  let mem r tup =
    check_open r.r_rel.name r.r_closed "mem";
    Cursor.mem r.r_cur tup

  let scan r id prefix f =
    check_open r.r_rel.name r.r_closed "scan";
    Cursor.scan r.r_cur id prefix f

  let query r pat f =
    check_open r.r_rel.name r.r_closed "query";
    Cursor.query r.r_cur pat f

  let finish r =
    finish_phase r.r_rel Sync.Phase_latch.Read r.r_closed;
    Cursor.release r.r_cur
end

let begin_write t =
  (* a write may not open while readers are active *)
  enter_phase t Sync.Phase_latch.Write "begin_write";
  { Writer.w_cur = Cursor.create t; w_rel = t; w_closed = ref false }

let begin_read t =
  (* a read may not open while writers are active *)
  enter_phase t Sync.Phase_latch.Read "begin_read";
  { Reader.r_cur = Cursor.create t; r_rel = t; r_closed = ref false }
