type kind = Btree | Btree_nohints | Rbtree | Hashset | Bplus | Tbb_hash

let all_kinds = [ Btree; Btree_nohints; Rbtree; Hashset; Bplus; Tbb_hash ]

(* Key module comparing int-array tuples lexicographically in the column
   order [order] (a permutation of the columns): the tuple tree's
   comparator, for the sorted kinds built over a plain ordered-set
   functor. *)
let ordered_key (order : int array) : (module Key.ORDERED with type t = int array) =
  (module struct
    type t = int array

    let compare = Key.Int_array.compare_columns order
    let dummy = [||]
    let to_string = Key.Int_array.to_string
  end)

module Index = struct
  type cursor = {
    c_insert : int array -> bool;
    c_mem : int array -> bool;
    c_scan : int array -> (int array -> unit) -> unit;
    c_release : unit -> unit;
  }

  type t = {
    i_merge : Pool.t option -> int array array -> int;
        (* unsorted tuples: sort a private copy in index order, then batch
           insert — partitioned across the pool for the B-tree kinds *)
    i_iter : (int array -> unit) -> unit;
    i_cardinal : unit -> int;
    i_is_empty : unit -> bool;
    i_cursor : unit -> cursor;
    i_hint_counters : unit -> (int * int) option;
    i_shape : unit -> Tree_shape.t option; (* B-tree kinds only *)
    i_hint_runs : unit -> int array option; (* hinted B-tree kinds only *)
    i_key : int array;
        (* the columns it is keyed on: the total order of the ordered kinds,
           the signature of a hash multimap, [||] for a hash set *)
  }

  (* Below this many tuples a parallel merge costs more in pool fork-join
     than the insert work it spreads. *)
  let merge_parallel_cutoff = 1024

  (* [tuples] itself when already non-decreasing in [compare]'s order (the
     common case for loader shards and pre-sorted deltas — one linear scan
     beats a redundant heapsort), else a sorted private copy. *)
  let sorted_run ~compare tuples =
    let n = Array.length tuples in
    let i = ref 1 in
    while !i < n && compare tuples.(!i - 1) tuples.(!i) <= 0 do incr i done;
    if !i >= n then tuples
    else begin
      let run = Array.copy tuples in
      Array.sort compare run;
      run
    end

  (* element-wise sum of equal-length hint-run histograms *)
  let merge_runs a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Array.mapi (fun i v -> v + b.(i)) a)

  let count c = Sync.Counter.incr c

  let count_scan stats prefix =
    match stats with
    | Some s when Array.length prefix > 0 ->
      count s.Dl_stats.lower_bounds;
      count s.Dl_stats.upper_bounds
    | _ -> ()

  let count_mem stats =
    match stats with Some s -> count s.Dl_stats.mem_tests | None -> ()

  (* ---------------- ordered kinds ---------------- *)

  (* total comparison order of an index: the given key (a signature, or
     a possibly partial shared-chain order), then the remaining columns in
     ascending position order *)
  let total_order ~arity key =
    let rest = List.filter (fun c -> not (Array.mem c key)) (List.init arity Fun.id) in
    Array.append key (Array.of_list rest)

  (* The one bounded read of the ordered kinds: the tuples whose first
     [Array.length prefix] columns of [order] equal [prefix], from one seek
     of the least such tuple ([iter_from] on [scratch]) while they last. *)
  let prefix_scan ~stats ~order ~iter ~iter_from scratch prefix f =
    count_scan stats prefix;
    let k = Array.length prefix in
    if k = 0 then iter f
    else begin
      Array.fill scratch 0 (Array.length scratch) min_int;
      for i = 0 to k - 1 do
        scratch.(order.(i)) <- prefix.(i)
      done;
      iter_from
        (fun (tup : int array) ->
          let i = ref 0 in
          while !i < k && tup.(order.(!i)) = prefix.(!i) do incr i done;
          let inside = !i = k in
          if inside then f tup;
          inside)
        scratch
    end

  let make_btree ~hints ~arity ~key ~stats =
    (* specialized tuple tree: inlined comparator in the key's order *)
    let order = total_order ~arity key in
    let tree = Btree_tuples.create ~arity ~order () in
    (* for hit-rate reporting: the hints of every live cursor's session,
       and the summed counters of the released ones — a resident index
       sees a cursor per phase handle for as long as it lives *)
    let hint_registry = ref [] in
    let released = ref (0, 0) and released_runs = ref None in
    let registry_lock = Olock.Spin.create () in
    let cursor () =
      (* each cursor is a per-domain access handle, so it owns a session
         (the hinted path); the no-hints ablation kind uses the raw
         unhinted operations instead *)
      let sess = if hints then Some (Btree_tuples.session tree) else None in
      (match sess with
      | Some s ->
        Olock.Spin.with_lock registry_lock (fun () ->
            hint_registry := Btree_tuples.s_hints s :: !hint_registry)
      | None -> ());
      let scratch = Array.make (max 1 arity) 0 in
      let iter f = Btree_tuples.iter f tree in
      let iter_from =
        match sess with
        | Some s -> fun keep probe -> Btree_tuples.s_iter_from keep s probe
        | None -> fun keep probe -> Btree_tuples.iter_from keep tree probe
      in
      {
        c_insert =
          (fun tup ->
            match sess with
            | Some s -> Btree_tuples.s_insert s tup
            | None -> Btree_tuples.insert tree tup);
        c_mem =
          (fun tup ->
            count_mem stats;
            match sess with
            | Some s -> Btree_tuples.s_mem s tup
            | None -> Btree_tuples.mem tree tup);
        c_scan = (fun prefix f -> prefix_scan ~stats ~order ~iter ~iter_from scratch prefix f);
        c_release =
          (fun () ->
            match sess with
            | Some s ->
              let hr = Btree_tuples.s_hints s in
              Olock.Spin.with_lock registry_lock (fun () ->
                  hint_registry := List.filter (fun h -> h != hr) !hint_registry;
                  let h, m = !released and h', m' = Btree_tuples.hint_counters hr in
                  released := (h + h', m + m');
                  released_runs :=
                    merge_runs !released_runs
                      (Some (Btree_tuples.hint_run_hist hr)))
            | None -> ());
      }
    in
    (* Parallel structural merge (delta -> full): sort the incoming tuples
       in this index's order, partition the run by the full tree's internal
       separators so every partition descends into a disjoint region, and
       batch-insert the partitions on the pool with per-partition hints. *)
    let merge pool tuples =
      let n = Array.length tuples in
      if n = 0 then 0
      else begin
        let run = sorted_run ~compare:(Btree_tuples.compare tree) tuples in
        match pool with
        | Some p when Pool.size p > 1 && n >= merge_parallel_cutoff ->
          let bounds = Btree_tuples.partition tree ~parts:(Pool.size p * 4) run in
          let fresh = Sync.Counter.make 0 in
          (* one session per worker, reused across every partition the
             worker steals (chunk 1: partitions are coarse units already) *)
          let wsess =
            Array.init (Pool.size p) (fun _ -> Btree_tuples.session tree)
          in
          Pool.parallel_for_workers ~label:"merge" ~chunk:1 p 0
            (Array.length bounds - 1)
            (fun w part ->
              let lo = bounds.(part) and hi = bounds.(part + 1) in
              if hi > lo then begin
                let f =
                  Btree_tuples.s_insert_batch ~pos:lo ~len:(hi - lo)
                    wsess.(w) run
                in
                Sync.Counter.add fresh f
              end);
          Sync.Counter.get fresh
        | _ -> Btree_tuples.insert_batch tree run
      end
    in
    {
      i_merge = merge;
      i_iter = (fun f -> Btree_tuples.iter f tree);
      i_cardinal = (fun () -> Btree_tuples.cardinal tree);
      i_is_empty = (fun () -> Btree_tuples.is_empty tree);
      i_cursor = cursor;
      i_hint_counters =
        (fun () ->
          if not hints then None
          else
            Some
              (List.fold_left
                 (fun (h, m) hr ->
                   let h', m' = Btree_tuples.hint_counters hr in
                   (h + h', m + m'))
                 !released !hint_registry));
      i_shape = (fun () -> Some (Btree_tuples.shape tree));
      i_hint_runs =
        (fun () ->
          if not hints then None
          else
            List.fold_left
              (fun acc hr -> merge_runs acc (Some (Btree_tuples.hint_run_hist hr)))
              !released_runs !hint_registry);
      i_key = order;
    }

  (* Sorted index over a thread-unsafe ordered set functor (rbtree,
     bplus): the tree is built for this index's total order; scans seek to
     the bound with [iter_from]; merges are a serial sorted loop. *)
  module type SORTED = functor (K : Key.ORDERED with type t = int array) -> sig
    include Set_intf.S with type key = int array

    val iter_from : (key -> bool) -> t -> key -> unit
    val is_empty : t -> bool
  end

  let make_sorted (module F : SORTED) ~arity ~key ~stats =
    let order = total_order ~arity key in
    let module K = (val ordered_key order) in
    let module T = F (K) in
    let tree = T.create () in
    let iter f = T.iter f tree and iter_from keep probe = T.iter_from keep tree probe in
    let cursor () =
      let scratch = Array.make (max 1 arity) 0 in
      {
        c_insert = (fun tup -> T.insert tree tup);
        c_mem =
          (fun tup ->
            count_mem stats;
            T.mem tree tup);
        c_scan = (fun prefix f -> prefix_scan ~stats ~order ~iter ~iter_from scratch prefix f);
        c_release = ignore;
      }
    in
    {
      i_merge =
        (fun _pool tuples ->
          let fresh = ref 0 in
          Array.iter
            (fun tup -> if T.insert tree tup then incr fresh)
            (sorted_run ~compare:K.compare tuples);
          !fresh);
      i_iter = (fun f -> T.iter f tree);
      i_cardinal = (fun () -> T.cardinal tree);
      i_is_empty = (fun () -> T.is_empty tree);
      i_cursor = cursor;
      i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      i_key = order;
    }

  (* ---------------- hash kinds ---------------- *)

  module Tuple_hashed = struct
    type t = int array

    let equal = Key.Int_array.equal
    let hash = Key.Int_array.hash
  end

  module Tuple_tbl = Hashtbl.Make (Tuple_hashed)

  (* Hash index: with an empty key the hash set [H] of tuples (a
     primary); otherwise a hash multimap from the key columns' values to
     tuples.  The [concurrent] instance (tbb) stripes the multimap over 64
     spin-locked tables; the sequential one (hashset) is a single unlocked
     table. *)
  let make_hash (module H : Set_intf.S with type key = int array) ~concurrent
      ~arity:_ ~key ~stats =
    let insert, mem, scan, iter, cardinal, is_empty =
      if Array.length key = 0 then begin
        let set = H.create () in
        ( H.insert set,
          H.mem set,
          (fun _bound f -> H.iter f set),
          (fun f -> H.iter f set),
          (fun () -> H.cardinal set),
          fun () -> H.cardinal set = 0 )
      end
      else begin
        let nstripes = if concurrent then 64 else 1 in
        let stripes =
          Array.init nstripes (fun _ ->
              ( Olock.Spin.create (),
                Tuple_tbl.create (if concurrent then 64 else 1024) ))
        in
        let locked lock f =
          if concurrent then Olock.Spin.with_lock lock f else f ()
        in
        let stripe_of k =
          if concurrent then stripes.(Tuple_hashed.hash k land (nstripes - 1))
          else stripes.(0)
        in
        let key_of tup = Array.map (fun c -> tup.(c)) key in
        let bucket_of k =
          let _, tbl = stripe_of k in
          Tuple_tbl.find_opt tbl k
        in
        ( (fun tup ->
            let k = key_of tup in
            let lock, tbl = stripe_of k in
            locked lock (fun () ->
                match Tuple_tbl.find_opt tbl k with
                | Some bucket -> bucket := tup :: !bucket
                | None -> Tuple_tbl.add tbl k (ref [ tup ]));
            (* multimap: every insert lands *)
            true),
          (fun tup ->
            match bucket_of (key_of tup) with
            | Some bucket -> List.exists (Key.Int_array.equal tup) !bucket
            | None -> false),
          (fun bound f ->
            match bucket_of bound with
            | Some bucket -> List.iter f !bucket
            | None -> ()),
          (fun f ->
            Array.iter
              (fun (_, tbl) -> Tuple_tbl.iter (fun _ b -> List.iter f !b) tbl)
              stripes),
          (fun () ->
            Array.fold_left
              (fun acc (_, tbl) ->
                Tuple_tbl.fold (fun _ b acc -> acc + List.length !b) tbl acc)
              0 stripes),
          fun () ->
            Array.for_all (fun (_, tbl) -> Tuple_tbl.length tbl = 0) stripes )
      end
    in
    (* serial: a relation spreads its hash inserts over the pool itself,
       gated on primary freshness ([Relation]'s batch write) *)
    let merge _pool tuples =
      let fresh = ref 0 in
      Array.iter (fun tup -> if insert tup then incr fresh) tuples;
      !fresh
    in
    let cursor () =
      {
        c_insert = insert;
        c_mem =
          (fun tup ->
            count_mem stats;
            mem tup);
        c_scan =
          (fun prefix f ->
            count_scan stats prefix;
            if Array.length prefix = 0 then iter f
            else if Array.length prefix = Array.length key then scan prefix f
            else invalid_arg "Storage.Index.c_scan: a hash prefix is the whole key");
        c_release = ignore;
      }
    in
    {
      i_merge = merge;
      i_iter = iter;
      i_cardinal = cardinal;
      i_is_empty = is_empty;
      i_cursor = cursor;
      i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      i_key = key;
    }

  module Seq_hashset = struct
    include Hashset.Make (Key.Int_array)

    let create () = create ()
  end

  module Tbb_hashset = struct
    include Concurrent_hashset.Make (Key.Int_array)

    let create () = create ()
  end

  module Sorted_bplus (K : Key.ORDERED with type t = int array) = struct
    include Bplus_tree.Make (K)

    let create () = create ()
  end

  (* ---------------- backend dispatch table ---------------- *)

  (* One first-class module per storage kind: its naming, concurrency
     capabilities, and index factory.  Every per-kind decision in the
     storage layer and above (naming, write locking, index sharing, index
     construction) routes through this table instead of scattered
     matches. *)
  module type BACKEND = sig
    val kind : kind

    val name : string
    (** Display name, as used in the paper's figures. *)

    val aliases : string list
    (** Lower-case spellings accepted by {!kind_of_name} (including the
        display name). *)

    val thread_safe_insert : bool
    val shares_indexes : bool

    val make : arity:int -> key:int array -> stats:Dl_stats.t option -> t
  end

  let backends : (module BACKEND) list =
    [
      (module struct
        let kind = Btree
        let name = "btree"
        let aliases = [ "btree" ]
        let thread_safe_insert = true
        let shares_indexes = true
        let make = make_btree ~hints:true
      end);
      (module struct
        let kind = Btree_nohints
        let name = "btree (n/h)"
        let aliases = [ "btree-nohints"; "btree (n/h)"; "btree_nohints" ]
        let thread_safe_insert = true
        let shares_indexes = true
        let make = make_btree ~hints:false
      end);
      (module struct
        let kind = Rbtree
        let name = "rbtset"
        let aliases = [ "rbtree"; "rbtset" ]
        let thread_safe_insert = false
        let shares_indexes = true
        let make = make_sorted (module Rbtree.Make)
      end);
      (module struct
        let kind = Hashset
        let name = "hashset"
        let aliases = [ "hashset" ]
        let thread_safe_insert = false
        let shares_indexes = false
        let make = make_hash (module Seq_hashset) ~concurrent:false
      end);
      (module struct
        let kind = Bplus
        let name = "google btree"
        let aliases = [ "bplus"; "google"; "google btree" ]
        let thread_safe_insert = false
        let shares_indexes = true
        let make = make_sorted (module Sorted_bplus)
      end);
      (module struct
        let kind = Tbb_hash
        let name = "tbb hashset"
        let aliases = [ "tbb"; "tbb hashset"; "tbb_hash" ]
        let thread_safe_insert = true
        let shares_indexes = false
        let make = make_hash (module Tbb_hashset) ~concurrent:true
      end);
    ]

  let backend k =
    List.find (fun (module B : BACKEND) -> B.kind = k) backends

  let create kind ~arity ~key ~stats () =
    let seen = Array.make (max 1 arity) false in
    Array.iter
      (fun c ->
        if c < 0 || c >= arity || seen.(c) then
          invalid_arg "Storage.Index.create: bad key";
        seen.(c) <- true)
      key;
    let (module B) = backend kind in
    B.make ~arity ~key ~stats

  let hint_counters t = t.i_hint_counters ()
  let shape t = t.i_shape ()
  let hint_runs t = t.i_hint_runs ()
  let key t = t.i_key
  let is_empty t = t.i_is_empty ()
  let merge ?pool t tuples = t.i_merge pool tuples
  let iter t f = t.i_iter f
  let cardinal t = t.i_cardinal ()
  let cursor t = t.i_cursor ()
  let c_insert c tup = c.c_insert tup
  let c_mem c tup = c.c_mem tup
  let c_scan c prefix f = c.c_scan prefix f
  let release c = c.c_release ()
end

(* Kind metadata, all answered by the backend table. *)
let kind_name k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.name

let thread_safe_insert k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.thread_safe_insert

let shares_indexes k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.shares_indexes

let kind_of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_map
    (fun (module B : Index.BACKEND) ->
      if List.mem s B.aliases then Some B.kind else None)
    Index.backends

let kind_choices =
  String.concat ", "
    (List.map
       (fun (module B : Index.BACKEND) -> List.hd B.aliases)
       Index.backends)
