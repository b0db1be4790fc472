(* The specialized B-tree of the paper (section 3), written once.

   Every tree in this repository is an instance of [Make (L) (K)]: the
   concurrent [Btree.Make] (over [Olock]), the sequential [Btree_seq.Make]
   (over a no-op lock, so it runs exactly this code minus the locking
   cost), and the tuple tree [Btree_tuples] (over [Olock] and the
   column-order comparator).  The paper's C++ template does the same with
   compile-time instantiation.

   Structure: a classic B-tree — elements live in inner nodes as well as
   leaves, an inner node with [k] elements has [k + 1] children.  Nodes are
   never deleted, moved or converted between leaf and inner, which is the
   property that makes optimistic traversal and hint pointers safe.

   Synchronisation (Algorithm 1 / 2 of the paper):
   - every node carries an optimistic read-write lock; the tree carries an
     extra [root_lock] protecting the root pointer;
   - insertion descends taking read leases only, validating a node's lease
     before acting on anything read from it (in particular before descending
     through a child pointer);
   - at the target leaf the lease is upgraded to an exclusive write permit by
     compare-and-swap; failure of any validation or upgrade restarts the
     insertion from the root;
   - splits write-lock the ancestor path bottom-up (re-checking the parent
     pointer after each acquisition, since a concurrent split of the parent
     may have moved the child), perform the split, and unlock top-down.  A
     new sibling is write-locked from birth (the Blink-tree latching rule):
     an inner one until it is linked, because the children it receives
     point at it before that and a writer holding one of them must not be
     able to latch it early; a leaf one so that the splitting writer goes
     on writing in whichever half covers its key, without a re-descent;
   - [insert] and [insert_batch] share this one write path: a single
     insert is a sorted run of one key.

   Memory-model note.  Payload fields ([keys], [nkeys], [children], [parent],
   [position]) are plain mutable fields read racily during optimistic
   descent.  OCaml's memory model defines such races (a read yields some
   value previously written, never a wild pointer), so the only extra care
   needed is bounds-clamping of racily read counters before they are used as
   indices; semantic inconsistency is caught by lease validation, whose
   [Atomic] accesses provide the acquire/release edges of the Boehm seqlock
   recipe. *)

module type LOCK = Olock.S

module type KEY = sig
  type t

  type ctx
  (** Per-tree comparator context: [unit] for plain keys, the column order
      for tuples. *)

  val compare : ctx -> t -> t -> int
  (** Total order.  Applied to a tree's context once, at creation; an
      instance should return a closure specialised to that context, so a
      comparison costs one indirect call. *)

  val dummy : t
  (** Fills unused key slots; never observed through the API. *)
end

(* Plain ordered keys: no context, the key's own comparator. *)
module Plain (K : Key.ORDERED) : KEY with type t = K.t and type ctx = unit =
struct
  type t = K.t
  type ctx = unit

  let compare () = K.compare
  let dummy = K.dummy
end

(** The operations every instance shares.  Constructors differ per
    instance (a plain tree needs no context, a tuple tree needs its column
    order), so they live in {!S} and {!PLAIN}. *)
module type OPS = sig
  type key

  type t
  (** A B-tree set of [key]s. *)

  val default_capacity : int

  val compare : t -> key -> key -> int
  (** The tree's key order — what "sorted" means for {!insert_batch} runs. *)

  (** {1 Operation hints}

      A [hints] value caches the last leaf located by each operation kind
      (section 3.2).  When the next operation falls within the cached leaf's
      key range, the traversal is skipped.  Hints are owned by a per-domain
      {!session}; every hinted operation counts one hit or one miss.  Hints
      never dangle because nodes are never deleted. *)

  type hints

  val make_hints : unit -> hints

  val hint_counters : hints -> int * int
  (** (hits, misses) over all operation kinds. *)

  val hint_run_hist : hints -> int array
  (** Hint locality: log2-bucketed lengths of uninterrupted hit runs
      (bucket [b>0] holds runs of [2^(b-1)..2^b-1] hits; bucket 0 counts
      misses straight after a miss).  The still-open run, if any, is
      counted as if it closed now. *)

  (** {1 Robustness}

      Optimistic descents retry on observing a concurrent write.  Under
      adversarial scheduling retries alone cannot bound the descent, so
      each insertion carries a restart budget; once it is exhausted the
      descent falls back to a pessimistic write-locked descent that never
      holds one node lock while blocking on another (it re-acquires by CAS
      on a version observed under the previous lock and restarts from the
      root on failure — every such restart coincides with a completed
      concurrent write, so the fallback makes global progress).  Fallbacks
      bump [Telemetry.Counter.Btree_pessimistic_fallbacks]. *)

  val set_restart_budget : int -> unit
  (** Optimistic restarts allowed per insertion before the fallback engages
      (default 16; [0] = always pessimistic).  Per instantiation; quiescent
      use only.  @raise Invalid_argument if negative. *)

  val restart_budget : unit -> int

  (** {1 Modification}

      Thread-safe against concurrent modifications when the lock is
      {!Olock}.  Reads ([mem], bounds, iteration) are safe against
      concurrent reads; per the semi-naive two-phase discipline they never
      race with writes. *)

  val insert : t -> key -> bool
  (** [true] iff the key was not already present (Algorithm 1). *)

  val insert_batch : ?pos:int -> ?len:int -> t -> key array -> int
  (** [insert_batch t run] inserts the sorted run [run.(pos..pos+len-1)]
      (non-decreasing; duplicates are skipped) and returns the number of
      fresh keys.  One descent write-locks the target leaf together with
      its exclusive upper bound; the run is then consumed up to that bound
      with two-blit gap splices and in-place multi-splits.
      @raise Invalid_argument on an unsorted run or an invalid range. *)

  val insert_all : t -> t -> unit
  (** [insert_all dst src] inserts every element of [src] in order through
      internal hints (the paper's specialised merge). *)

  (** {1 Queries} *)

  val mem : t -> key -> bool
  val is_empty : t -> bool

  val cardinal : t -> int
  (** O(n); no element counter (it would serialise writers). *)

  val min_elt : t -> key option
  val max_elt : t -> key option

  val lower_bound : t -> key -> key option
  (** Smallest element [>= k]. *)

  val upper_bound : t -> key -> key option
  (** Smallest element [> k]. *)

  val iter : (key -> unit) -> t -> unit
  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a

  val iter_while : (key -> bool) -> t -> unit
  (** In order, stopping the first time the callback returns [false]. *)

  val iter_from : (key -> bool) -> t -> key -> unit
  (** [iter_from f t k] applies [f] in order to every element [>= k] while
      [f] returns [true] — the range-scan primitive of the engine's joins. *)

  val to_list : t -> key list
  val to_sorted_array : t -> key array

  val separators : t -> limit:int -> key array
  (** At most [limit] separator keys from the top levels of the tree, in
      ascending order: keys below [separators.(i)] reach leaves disjoint
      from those reached by keys above it.  Quiescent use only. *)

  val partition : t -> parts:int -> key array -> int array
  (** [partition t ~parts run] cuts the sorted [run] at up to [parts - 1]
      separators: bounds [b] with [b.(0) = 0], last element [length run],
      non-decreasing.  Slices [b.(i) .. b.(i+1) - 1] descend into disjoint
      regions of the tree — the parallel structural merge's partitioning.
      Quiescent use only. *)

  (** {1 Explicit iterators}

      A cursor navigating through parent pointers (O(1) amortised per
      step, no stack): the STL-like [begin()]/increment interface.  Read
      phase only. *)

  module Iterator : sig
    type it

    val start : t -> it
    val seek : t -> key -> it
    val at_end : it -> bool

    val get : it -> key
    (** @raise Invalid_argument when {!at_end}. *)

    val advance : it -> unit
    (** @raise Invalid_argument when already {!at_end}. *)

    val copy : it -> it
  end

  (** {1 Set predicates} *)

  val equal : t -> t -> bool
  val subset : t -> t -> bool
  val disjoint : t -> t -> bool

  (** {1 Introspection} *)

  type stats = {
    elements : int;
    nodes : int;
    leaves : int;
    height : int;
    fill : float;  (** mean node fill grade in [0..1] *)
  }

  val stats : t -> stats

  val shape : t -> Tree_shape.t
  (** Full structural report; root-only tree has height 1.  Quiescent. *)

  val check_invariants : t -> unit
  (** Validates ordering, fill bounds, uniform leaf depth, edge-leaf flags
      and parent/position back-pointers.  @raise Failure describing the
      first violation.  Quiescent use only. *)

  (** {1 Sessions}

      A per-domain handle owning that domain's operation hints — the only
      hinted surface.  Do not share across domains (memory-safe, but it
      destroys the hint hit rate). *)

  type session

  val session : t -> session
  val s_tree : session -> t
  val s_hints : session -> hints
  val s_insert : session -> key -> bool
  val s_insert_batch : ?pos:int -> ?len:int -> session -> key array -> int
  val s_mem : session -> key -> bool
  val s_lower_bound : session -> key -> key option
  val s_upper_bound : session -> key -> key option

  val s_iter_from : (key -> bool) -> session -> key -> unit
  (** A scan that starts inside the leaf cached by the previous scan or
      [s_lower_bound] skips the traversal. *)
end

module type S = sig
  include OPS

  type ctx

  val create : ?capacity:int -> ?binary_search:bool -> ctx -> t
  (** An empty tree.  [capacity] (default {!default_capacity}, at least 3)
      is the maximal number of keys per node; [binary_search] selects
      binary instead of linear search within nodes (default [false]). *)

  val context : t -> ctx
  (** The comparator context the tree was created with. *)

  val of_sorted_array : ?capacity:int -> ctx -> key array -> t
  (** Bulk build from a strictly increasing array in O(n), with the node
      fill of {!Leaf_pack.target_fill}.  @raise Invalid_argument if the
      input is not strictly increasing. *)
end

(** An instance over a plain ordered key. *)
module type PLAIN = sig
  include OPS

  val create : ?capacity:int -> ?binary_search:bool -> unit -> t
  val of_sorted_array : ?capacity:int -> key array -> t
end

module Make (L : LOCK) (K : KEY) :
  S with type key = K.t and type ctx = K.ctx = struct
  type key = K.t
  type ctx = K.ctx

  type node = {
    lock : L.t;
    mutable parent : node option; (* covered by the parent's lock *)
    mutable position : int;       (* index in parent.children; ditto *)
    keys : key array;             (* length = capacity *)
    mutable nkeys : int;
    children : node array;        (* length = capacity + 1, or [||] for leaves *)
    (* Whether this leaf is the first/last leaf of the whole tree.  Lets the
       hint coverage check extend the edge leaves' ranges to infinity ("weak
       coverage"), which is what makes hints effective on the append-heavy
       ordered workloads Datalog produces.  A leaf's edge status only changes
       when that leaf itself splits, so the flags are covered by the leaf's
       own lock — sound under concurrent optimistic readers. *)
    mutable leftmost : bool;
    mutable rightmost : bool;
  }

  type t = {
    root_lock : L.t;
    mutable root : node; (* == sentinel while the tree is empty *)
    capacity : int;
    binary : bool;
    ctx : ctx;
    cmp : key -> key -> int; (* [K.compare ctx], applied once *)
  }

  let default_capacity = 24

  (* Placeholder stored in unused child slots and in [t.root] of an empty
     tree.  It is a 0-key leaf, so accidentally descending into it during a
     racy read is harmless: the search finds nothing and validation fails. *)
  let sentinel =
    {
      lock = L.create ();
      parent = None;
      position = 0;
      keys = [||];
      nkeys = 0;
      children = [||];
      leftmost = false;
      rightmost = false;
    }

  let is_leaf n = Array.length n.children = 0

  let alloc t ~leaf =
    {
      lock = L.create ();
      parent = None;
      position = 0;
      keys = Array.make t.capacity K.dummy;
      nkeys = 0;
      children = (if leaf then [||] else Array.make (t.capacity + 1) sentinel);
      leftmost = false;
      rightmost = false;
    }

  let create ?(capacity = default_capacity) ?(binary_search = false) ctx =
    if capacity < 3 then invalid_arg "Btree.create: capacity must be >= 3";
    {
      root_lock = L.create ();
      root = sentinel;
      capacity;
      binary = binary_search;
      ctx;
      cmp = K.compare ctx;
    }

  let compare t = t.cmp
  let context t = t.ctx

  (* Clamp a racily read key count into the valid index range of [n]. *)
  let clamped_nkeys n =
    let k = n.nkeys in
    if k < 0 then 0
    else
      let cap = Array.length n.keys in
      if k > cap then cap else k

  (* [search t keys n key] locates [key] among the first [n] of [keys] in
     one int: [slot r] is the smallest index [i] with [keys.(i) >= key], or
     [n] if none — it doubles as the descent child index — and [found r]
     whether [keys.(i) = key], read off the comparison that ended the
     search, so no caller compares again and no tuple is built.  The
     linear loop is top-level: a local one would close over the arguments,
     and without flambda that closure is allocated on every call. *)
  let[@inline] slot r = r lsr 1
  let[@inline] found r = r land 1 = 1

  let rec search_linear cmp keys n key i =
    if i >= n then i lsl 1
    else
      let c = cmp key (Array.unsafe_get keys i) in
      if c > 0 then search_linear cmp keys n key (i + 1)
      else (i lsl 1) lor Bool.to_int (c = 0)

  (* [eq] belongs to the last index [hi] took, which is where the search
     ends (or [n], never compared, if [hi] never moved). *)
  let search_binary cmp keys n key =
    let lo = ref 0 and hi = ref n and eq = ref 0 in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = cmp (Array.unsafe_get keys mid) key in
      if c < 0 then lo := mid + 1
      else begin
        hi := mid;
        eq := Bool.to_int (c = 0)
      end
    done;
    (!lo lsl 1) lor !eq

  let search t keys n key =
    if t.binary then search_binary t.cmp keys n key
    else search_linear t.cmp keys n key 0

  (* ------------------------------------------------------------------ *)
  (* Hints (section 3.2)                                                *)
  (* ------------------------------------------------------------------ *)

  type hints = {
    mutable insert_leaf : node;
    mutable find_leaf : node;
    mutable lb_leaf : node;
    mutable ub_leaf : node;
    mutable h_hits : int;
    mutable h_misses : int;
    mutable h_run : int; (* length of the current uninterrupted hit run *)
    h_runs : int array; (* log2-bucketed run lengths, closed at each miss *)
  }

  let run_buckets = 16

  let make_hints () =
    {
      insert_leaf = sentinel;
      find_leaf = sentinel;
      lb_leaf = sentinel;
      ub_leaf = sentinel;
      h_hits = 0;
      h_misses = 0;
      h_run = 0;
      h_runs = Array.make run_buckets 0;
    }

  (* Hint locality: every miss closes the current run of consecutive hits
     and records its length (bucket b holds runs of 2^(b-1)..2^b-1 hits;
     bucket 0 is the 0-hit run — a miss straight after a miss).  Long runs
     are the sorted access pattern the paper's hints exploit. *)
  let run_bucket r =
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    let b = bits r 0 in
    if b >= run_buckets then run_buckets - 1 else b

  let hit h =
    h.h_hits <- h.h_hits + 1;
    h.h_run <- h.h_run + 1;
    Telemetry.bump Telemetry.Counter.Btree_hint_hits

  let miss h =
    let b = run_bucket h.h_run in
    h.h_misses <- h.h_misses + 1;
    h.h_run <- 0;
    h.h_runs.(b) <- h.h_runs.(b) + 1;
    Telemetry.bump Telemetry.Counter.Btree_hint_misses

  let hint_run_hist h =
    let a = Array.copy h.h_runs in
    if h.h_run > 0 then begin
      let b = run_bucket h.h_run in
      a.(b) <- a.(b) + 1
    end;
    a

  let hint_counters h = (h.h_hits, h.h_misses)

  (* A leaf "covers" [key] when [key] falls within its responsibility range;
     in a classic B-tree no inner separator can fall strictly inside a leaf's
     range, so a covering leaf is authoritative for [key].  The first/last
     leaf of the tree covers everything below/above its keys ("weak
     coverage"), which makes hints hit on append-style ordered streams. *)
  let covers t n nk key =
    nk > 0
    && (n.leftmost || t.cmp n.keys.(0) key <= 0)
    && (n.rightmost || t.cmp key n.keys.(nk - 1) <= 0)

  (* ------------------------------------------------------------------ *)
  (* Splitting (Algorithm 2)                                            *)
  (* ------------------------------------------------------------------ *)

  type locked_ancestor = Anc_node of node | Anc_root

  (* Write-lock [cur]'s parent, re-reading the parent pointer after each
     acquisition: a concurrent split of the old parent may have moved [cur]
     under a new one.  [cur] itself must already be write-locked by the
     caller, which rules out the None <-> Some transitions.  The re-check is
     sound because a parent pointer only ever changes to a node whose lock
     the changing writer holds (see [split_node]). *)
  let lock_parent t cur =
    match cur.parent with
    | None ->
      L.start_write t.root_lock;
      Anc_root
    | Some p ->
      let rec acquire p =
        L.start_write p.lock;
        match cur.parent with
        | Some p' when p' == p -> Anc_node p
        | Some p' ->
          L.abort_write p.lock;
          acquire p'
        | None ->
          (* unreachable: only roots are parentless, and [cur] is
             write-locked *)
          L.abort_write p.lock;
          assert false
      in
      acquire p

  (* Lock ancestors bottom-up until a non-full node or the root lock;
     returns them bottom-up (immediate parent first). *)
  let lock_path t node =
    let rec go cur acc =
      match lock_parent t cur with
      | Anc_root -> List.rev (Anc_root :: acc)
      | Anc_node p ->
        if p.nkeys < t.capacity then List.rev (Anc_node p :: acc)
        else go p (Anc_node p :: acc)
    in
    go node []

  let unlock_path t path =
    List.iter
      (function
        | Anc_node p -> L.end_write p.lock
        | Anc_root -> L.end_write t.root_lock)
      (List.rev path)

  (* Split a full, write-locked node around its median; returns
     [(median, right_sibling)].  Children moved to the right sibling get
     their parent/position fields updated — both are covered by the old
     parent's lock, which we hold.  The sibling is returned write-locked
     (the Blink-tree latching rule): an inner sibling because, from the
     moment its children point at it, a writer holding one of them may read
     the pointer and latch it in [lock_parent], so it must stay latched
     until it is linked and consistent ([insert_into_parent] releases it);
     a leaf sibling so that the writer that split it can keep filling it
     ([split_returning]).  Latching a node nobody can reach never blocks. *)
  let split_node t node =
    let leaf = is_leaf node in
    Telemetry.bump
      (if leaf then Telemetry.Counter.Btree_leaf_splits
       else Telemetry.Counter.Btree_inner_splits);
    let cap = t.capacity in
    let mid = cap / 2 in
    let median = node.keys.(mid) in
    let right = alloc t ~leaf in
    L.start_write right.lock;
    let rcount = cap - mid - 1 in
    Array.blit node.keys (mid + 1) right.keys 0 rcount;
    right.nkeys <- rcount;
    if not leaf then begin
      Array.blit node.children (mid + 1) right.children 0 (rcount + 1);
      for i = 0 to rcount do
        let c = right.children.(i) in
        c.parent <- Some right;
        c.position <- i
      done
    end;
    node.nkeys <- mid;
    right.rightmost <- node.rightmost;
    node.rightmost <- false;
    (median, right)

  (* Insert separator [median] and its right subtree [right] just after the
     child [cur] of the write-locked, non-full node [p]. *)
  let link_sibling p cur right median =
    let i = cur.position in
    let n = p.nkeys in
    Array.blit p.keys i p.keys (i + 1) (n - i);
    p.keys.(i) <- median;
    Array.blit p.children (i + 1) p.children (i + 2) (n - i);
    p.children.(i + 1) <- right;
    p.nkeys <- n + 1;
    right.parent <- Some p;
    for j = i + 1 to n + 1 do
      p.children.(j).position <- j
    done

  (* Propagate a split upward along the locked [path]: every path node except
     the last is full and is split in turn; the final node (or a fresh root)
     absorbs the last separator. *)
  let rec insert_into_parent t path cur right median =
    match path with
    | [] -> assert false
    | Anc_root :: _ ->
      (* [cur] is the root: grow the tree by one level. *)
      Telemetry.bump Telemetry.Counter.Btree_root_splits;
      let new_root = alloc t ~leaf:false in
      new_root.keys.(0) <- median;
      new_root.nkeys <- 1;
      new_root.children.(0) <- cur;
      new_root.children.(1) <- right;
      cur.parent <- Some new_root;
      cur.position <- 0;
      right.parent <- Some new_root;
      right.position <- 1;
      t.root <- new_root
    | Anc_node p :: rest ->
      if p.nkeys >= t.capacity then begin
        let p_median, p_right = split_node t p in
        insert_into_parent t rest p p_right p_median;
        (* [split_node] redirected moved children, so [cur.parent] now names
           whichever half [cur] landed in. *)
        let q = match cur.parent with Some q -> q | None -> assert false in
        link_sibling q cur right median;
        (* linked and consistent: release the sibling's birth latch *)
        L.end_write p_right.lock
      end
      else link_sibling p cur right median

  (* Split the full leaf [node], write-locked by the caller.  Returns the
     separator that moved up and the new right sibling, both halves still
     write-locked: the caller keeps filling the half its key falls in and
     releases the other (cf. Algorithm 1 line 41).  The left half keeps the
     keys below the separator, which becomes its new exclusive bound; the
     right half inherits the old leaf's bound, exact because nobody else
     could reach the sibling before it was linked. *)
  let split_returning t node =
    let path = lock_path t node in
    (* chaos: widen the window during which the ancestor path is
       write-locked, forcing concurrent descents onto their restart (and
       eventually fallback) paths *)
    Chaos.yield_if Chaos.Point.Btree_split_delay;
    let median, right = split_node t node in
    insert_into_parent t path node right median;
    unlock_path t path;
    (median, right)

  (* ------------------------------------------------------------------ *)
  (* The write path (Algorithm 1)                                       *)
  (* ------------------------------------------------------------------ *)

  (* Every write — [insert], [insert_batch] and their session forms — runs
     the same three parts.  A {e target} names where a key goes: [locate]
     finds it by descent, [hinted] by the cached leaf of section 3.2.  Both
     apply Alg. 1's duplicate rule (a key found in any node under a lease
     that is still valid is a duplicate, and no write permit is taken) and
     otherwise return the leaf write-locked together with the exclusive
     upper bound of its key range.  [fill] then puts a sorted run into that
     leaf up to the bound, splitting in place; a single insert is a run of
     one key.  The bound stays authoritative while the permit is held,
     because a node's range only shrinks when that node itself splits. *)

  (* Safely create the root node of an empty tree (Algorithm 1, lines 2-9). *)
  let ensure_root t =
    while t.root == sentinel do
      if L.try_start_write t.root_lock then begin
        if t.root == sentinel then begin
          let leaf = alloc t ~leaf:true in
          leaf.leftmost <- true;
          leaf.rightmost <- true;
          t.root <- leaf
        end;
        L.end_write t.root_lock
      end
    done

  let restart_budget_v = ref 16

  let set_restart_budget n =
    if n < 0 then invalid_arg "Btree.set_restart_budget: budget must be >= 0";
    restart_budget_v := n

  let restart_budget () = !restart_budget_v

  (* [Dup n]: the key is present ([n] is the leaf holding it, or [sentinel]
     when it was found in an inner node).  [Leaf]: [leaf] is write-locked,
     the key is absent from it, belongs at index [idx] and is below [hi]
     ([None]: no bound, the rightmost spine).  [level]/[bucket] are the
     leaf's flight-recorder identity: its depth and the root-child index the
     descent took, or -1/-1 for a hinted leaf.  [Miss]: only from
     [hinted]. *)
  type target =
    | Dup of node
    | Leaf of {
        leaf : node;
        idx : int;
        hi : key option;
        level : int;
        bucket : int;
      }
    | Miss

  (* Alg. 1 at a leaf read under [lease] ([n] keys): a key found there is a
     duplicate if the lease still holds; otherwise the lease is upgraded to
     the write permit, and the CAS certifies that the leaf is unchanged
     since the search, so the key is still absent. *)
  let[@inline] claim t leaf lease n key hi level bucket =
    let r = search t leaf.keys n key in
    if found r then
      if L.valid leaf.lock lease then Dup leaf
      else begin
        Flight.record Flight.Ev.Validation_fail level bucket 0;
        Miss
      end
    else if L.try_upgrade_to_write leaf.lock lease then
      Leaf { leaf; idx = slot r; hi; level; bucket }
    else begin
      Flight.record Flight.Ev.Upgrade_fail level bucket 0;
      Miss
    end

  (* Acquire the root node's write permit while holding nothing, then
     confirm it still is the root: replacing the root requires write-locking
     the old root (via [lock_path]), which our permit excludes. *)
  let rec acquire_root t =
    let cur = t.root in
    L.start_write cur.lock;
    if t.root == cur then cur
    else begin
      L.abort_write cur.lock;
      acquire_root t
    end

  (* Hand-over-hand step of the pessimistic descent: holding [cur]'s write
     permit we read the child's raw version [v], release [cur], and
     re-acquire the child by CAS on [v].  The CAS certifies the child is
     unchanged since it was observed under [cur]'s permit, exactly like an
     optimistic upgrade; a failure means a writer {e completed} on the child
     in between — the system made progress — and the caller restarts from
     the root.  Never blocks while holding a lock (the discipline that keeps
     the bottom-up splitters deadlock-free), and never calls [L.valid], so
     forced validation failures cannot unbound it. *)
  let step_down cur next level bucket =
    let v = L.version next.lock in
    L.abort_write cur.lock;
    if v land 1 = 0 && L.try_upgrade_to_write next.lock v then true
    else begin
      Flight.record Flight.Ev.Upgrade_fail (level + 1) bucket 0;
      false
    end

  (* The pessimistic fallback of [locate]: every level is visited under
     that node's write permit, so leases cannot go stale and the bound is
     exact. *)
  let rec pessimistic t key =
    let rec go cur hi level bucket =
      let n = cur.nkeys in
      let r = search t cur.keys n key in
      let idx = slot r in
      if found r then begin
        L.abort_write cur.lock;
        Dup (if is_leaf cur then cur else sentinel)
      end
      else if is_leaf cur then Leaf { leaf = cur; idx; hi; level; bucket }
      else begin
        let next = cur.children.(idx) in
        let hi = if idx < n then Some cur.keys.(idx) else hi in
        let bucket = if level = 0 then idx else bucket in
        if step_down cur next level bucket then go next hi (level + 1) bucket
        else pessimistic t key
      end
    in
    go (acquire_root t) None 0 (-1)

  (* The target of [key] by descent from the root: optimistic, carrying the
     exclusive bound down (the last separator passed).  [attempts] counts
     restarts; past the budget the descent falls back to [pessimistic]. *)
  let rec locate t key attempts =
    if attempts >= !restart_budget_v then begin
      Telemetry.bump Telemetry.Counter.Btree_pessimistic_fallbacks;
      Flight.record Flight.Ev.Fallback !restart_budget_v 0 0;
      let t0 = Telemetry.hist_time () in
      let r = pessimistic t key in
      Telemetry.hist_end Telemetry.Hist.Btree_fallback_ns t0;
      r
    end
    else begin
      (* Obtain the root and a lease on it, validating the root pointer
         (Algorithm 1, lines 13-17). *)
      let root_lease = L.start_read t.root_lock in
      let cur = t.root in
      let cur_lease = L.start_read cur.lock in
      if L.end_read t.root_lock root_lease then
        descend t key cur cur_lease None 0 (-1) attempts
      else restart t key attempts
    end

  and restart t key attempts =
    (* optimistic descent observed a concurrent write: back to the root *)
    Telemetry.bump Telemetry.Counter.Btree_restarts;
    Flight.record Flight.Ev.Restart (attempts + 1) 0 0;
    locate t key (attempts + 1)

  and invalid t key level bucket attempts =
    Flight.record Flight.Ev.Validation_fail level bucket 0;
    restart t key attempts

  (* [level] is the depth of [cur] (0 = root); [bucket] is the root-child
     index this descent took — a genuine key-range bucket, since the root
     separators partition the key space — or -1 above the first branch.
     Both tag the flight-recorder contention events, so post-mortem
     heatmaps can name the level and key region where leases died. *)
  and descend t key cur cur_lease hi level bucket attempts =
    (* chaos: stretch the read phase so concurrent writers invalidate the
       lease — drives the restart counter and the fallback *)
    Chaos.yield_if Chaos.Point.Btree_descent_yield;
    let n = clamped_nkeys cur in
    if is_leaf cur then
      match claim t cur cur_lease n key hi level bucket with
      | Miss -> restart t key attempts
      | r -> r
    else begin
      let r = search t cur.keys n key in
      let idx = slot r in
      if found r then
        (* already present — if the observation was consistent *)
        if L.valid cur.lock cur_lease then Dup sentinel
        else invalid t key level bucket attempts
      else begin
        let next = cur.children.(idx) in
        let hi = if idx < n then Some cur.keys.(idx) else hi in
        if not (L.valid cur.lock cur_lease) then
          invalid t key level bucket attempts
        else begin
          let next_lease = L.start_read next.lock in
          if not (L.valid cur.lock cur_lease) then
            invalid t key level bucket attempts
          else
            descend t key next next_lease hi (level + 1)
              (if level = 0 then idx else bucket)
              attempts
        end
      end
    end

  (* The target of [key] at the cached [leaf], when that leaf covers it;
     its own last key then bounds the fill (the leaf is authoritative only
     up to there unless it is rightmost).  Hinted attempts have no descent,
     so their flight events carry the -1/-1 "hinted leaf" identity. *)
  let[@inline] hinted t leaf key =
    if leaf == sentinel then Miss
    else begin
      let lease = L.start_read leaf.lock in
      let n = clamped_nkeys leaf in
      if not (covers t leaf n key && L.valid leaf.lock lease) then Miss
      else
        claim t leaf lease n key
          (if leaf.rightmost then None else Some leaf.keys.(n - 1))
          (-1) (-1)
    end

  (* [hinted] at [leaf], else [locate]; a session ([hints]) counts the
     hinted attempt as a hit or a miss. *)
  let[@inline] target hints t leaf key =
    match (hints, hinted t leaf key) with
    | None, Miss -> locate t key 0
    | None, r -> r
    | Some h, Miss ->
      miss h;
      locate t key 0
    | Some h, r ->
      hit h;
      r

  (* A batch's position in its run and its fresh keys so far. *)
  type progress = { mutable next : int; mutable fresh : int }

  (* Whether [k] falls below the gap at [idx] of the [nk]-key leaf [l]
     whose exclusive bound is [hi]. *)
  let in_gap t l idx nk hi k =
    if idx < nk then t.cmp k l.keys.(idx) < 0
    else match hi with None -> true | Some b -> t.cmp k b < 0

  (* The leaf-write step: put [key], then the sorted rest of its run
     [run.(next ..)] (up to exclusive index [stop]), into the write-locked
     [leaf] while keys stay below its exclusive bound [hi]; a single insert
     passes an empty rest.  The loop keeps the target's certificate as its
     invariant: the current key is absent from the current leaf, belongs at
     [idx] and is below the bound.  The key and the run keys after it that
     fall into the same inter-key gap are spliced with two blits.  A full
     leaf splits in place and the fill continues in whichever half covers
     the key: the left half bounded by the separator, or the new right
     sibling with the old bound — no re-descent.  Every fill writes its
     first key, so it releases with [end_write].  Returns the leaf written
     last (the next hint).  A batch passes its [progress], which the fill
     advances, and counts one splice per gap group and one leaf per leaf
     it writes. *)
  let fill ?batch t key run next stop leaf idx hi level bucket =
    let key = ref key and leaf = ref leaf and idx = ref idx and hi = ref hi in
    let i = ref next and fresh = ref 0 and filling = ref true in
    while !filling do
      let l = !leaf in
      let nk = l.nkeys in
      if nk >= t.capacity then begin
        (* Bottom-up split locking starts from this leaf — for a hinted
           leaf, the very compatibility property of section 3.2. *)
        Flight.record Flight.Ev.Split level bucket 0;
        let median, right = split_returning t l in
        if t.cmp !key median < 0 then begin
          L.end_write right.lock;
          hi := Some median
        end
        else begin
          L.end_write l.lock;
          leaf := right;
          if Option.is_some batch then
            Telemetry.bump Telemetry.Counter.Btree_batch_leaves
        end;
        idx := slot (search t !leaf.keys !leaf.nkeys !key)
      end
      else begin
        let at = !idx in
        let room = t.capacity - nk in
        let prev = ref !key and j = ref !i in
        while
          !j < stop && !j - !i + 1 < room
          && t.cmp !prev run.(!j) < 0
          && in_gap t l at nk !hi run.(!j)
        do
          prev := run.(!j);
          incr j
        done;
        let rest = !j - !i in
        Array.blit l.keys at l.keys (at + 1 + rest) (nk - at);
        l.keys.(at) <- !key;
        if rest > 0 then Array.blit run !i l.keys (at + 1) rest;
        l.nkeys <- nk + 1 + rest;
        fresh := !fresh + 1 + rest;
        if Option.is_some batch then
          Telemetry.bump Telemetry.Counter.Btree_batch_splices;
        i := !j;
        (* the next run key below the bound and absent from the leaf; a
           key equal to the bound is a live separator, hence present *)
        let seeking = ref true in
        while !filling && !seeking do
          if !i >= stop then filling := false
          else begin
            let k = run.(!i) in
            let c = match !hi with None -> -1 | Some b -> t.cmp k b in
            if c > 0 then filling := false
            else begin
              incr i;
              if c < 0 then begin
                let r = search t l.keys l.nkeys k in
                if not (found r) then begin
                  key := k;
                  idx := slot r;
                  seeking := false
                end
              end
            end
          end
        done
      end
    done;
    L.end_write !leaf.lock;
    (match batch with
    | Some p ->
      p.next <- !i;
      p.fresh <- p.fresh + !fresh
    | None -> ());
    !leaf

  let hint_leaf hints =
    match hints with Some h -> h.insert_leaf | None -> sentinel

  (* A single insert: a one-key fill.  The hint follows the leaf the key
     landed in; a duplicate leaves it alone. *)
  let insert_op hints t key =
    ensure_root t;
    match target hints t (hint_leaf hints) key with
    | Leaf { leaf; idx; hi; level; bucket } ->
      let leaf = fill t key [||] 0 0 leaf idx hi level bucket in
      (match hints with Some h -> h.insert_leaf <- leaf | None -> ());
      true
    | Dup _ | Miss -> false

  let insert_h hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_insert_ns in
    let r = insert_op hints t key in
    Telemetry.hist_end Telemetry.Hist.Btree_insert_ns t0;
    r

  (* A sorted run: one target per leaf visit, each filled up to its bound.
     The last leaf visited — filled, or holding a duplicate — is tried
     first for the next key, so a run of duplicates costs one probe per
     key, not one descent; in a session it is also the hint. *)
  let insert_batch_op hints t run pos len =
    let stop = pos + len in
    for k = pos + 1 to stop - 1 do
      if t.cmp run.(k - 1) run.(k) > 0 then
        invalid_arg "Btree.insert_batch: run not sorted"
    done;
    if len = 0 then 0
    else begin
      ensure_root t;
      Telemetry.add Telemetry.Counter.Btree_batch_keys len;
      let p = { next = pos; fresh = 0 } and last = ref (hint_leaf hints) in
      while p.next < stop do
        let key = run.(p.next) in
        match target hints t !last key with
        | Leaf { leaf; idx; hi; level; bucket } ->
          Telemetry.bump Telemetry.Counter.Btree_batch_leaves;
          last :=
            fill ~batch:p t key run (p.next + 1) stop leaf idx hi level bucket
        | Dup leaf ->
          p.next <- p.next + 1;
          if leaf != sentinel then last := leaf
        | Miss -> assert false (* [locate] never misses *)
      done;
      (match hints with Some h -> h.insert_leaf <- !last | None -> ());
      p.fresh
    end

  let insert_batch_h hints ?(pos = 0) ?len t run =
    let n = Array.length run in
    let len = match len with Some l -> l | None -> n - pos in
    if pos < 0 || len < 0 || pos + len > n then
      invalid_arg "Btree.insert_batch: invalid range";
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_batch_ns in
    let r = insert_batch_op hints t run pos len in
    Telemetry.hist_end Telemetry.Hist.Btree_batch_ns t0;
    r

  (* ------------------------------------------------------------------ *)
  (* Read operations (read phase: no synchronisation needed)            *)
  (* ------------------------------------------------------------------ *)

  let is_empty t = t.root == sentinel || (t.root.nkeys = 0 && is_leaf t.root)

  let rec min_node n = if is_leaf n then n else min_node n.children.(0)
  let rec max_node n = if is_leaf n then n else max_node n.children.(n.nkeys)

  let min_elt t = if is_empty t then None else Some (min_node t.root).keys.(0)

  let max_elt t =
    if is_empty t then None
    else
      let n = max_node t.root in
      Some n.keys.(n.nkeys - 1)

  (* Every keyed read — [mem], the bounds, [iter_from], [Iterator.seek] and
     their session forms — finds a position: [(node, i)] names
     [node.keys.(i)], and [i = nkeys] past a leaf's last key names the next
     separator up the parent links ([up]), or the end past the last leaf.
     [seek] is the one keyed descent: from [node] (the root, or a session's
     covering leaf) down to the leaf whose [index] is the position of the
     first key [>= key] ([> key] when [strict]).  A key equal to an inner
     separator is found past the end of the leaf left of it.  The descent,
     the position and a scan allocate nothing; a bound allocates only the
     [Some] of its answer. *)
  let index t strict keys n key =
    let r = search t keys n key in
    if strict && found r then slot r + 1 else slot r

  let rec seek t strict key node =
    if is_leaf node then node
    else
      seek t strict key
        node.children.(index t strict node.keys (clamped_nkeys node) key)

  (* Past [node]'s last key: the ancestor-or-self whose parent holds the
     next separator, at its [position]; the root when there is none. *)
  let rec up node =
    match node.parent with
    | Some p when node.position >= p.nkeys -> up p
    | _ -> node

  (* The separator after [node]'s last key; [None] past the last leaf. *)
  let next_separator node =
    let c = up node in
    match c.parent with Some p -> Some p.keys.(c.position) | None -> None

  (* The key at the position of [key] in [leaf]; [None] at the end. *)
  let key_at t strict key leaf =
    let n = clamped_nkeys leaf in
    let i = index t strict leaf.keys n key in
    if i < n then Some leaf.keys.(i) else next_separator leaf

  (* [f] on [keys.(i)], [keys.(i + 1)], ... below [n] while it returns
     [true]; whether it still does. *)
  let rec scan_keys f keys i n =
    i >= n || (f (Array.unsafe_get keys i) && scan_keys f keys (i + 1) n)

  (* The one bounded scan: [f] on every key from position [(node, i)] on,
     in order, until [f] returns [false] or the end.  Past a leaf's last
     key it climbs to the next separator; after a separator it goes down to
     the first leaf right of it — the moves of [Iterator.advance]. *)
  let rec scan f node i =
    if is_leaf node then begin
      if scan_keys f node.keys i (clamped_nkeys node) then
        let c = up node in
        match c.parent with Some p -> scan f p c.position | None -> ()
    end
    else if f node.keys.(i) then scan f (min_node node.children.(i + 1)) 0

  (* The hinted read kinds, each with its own cached leaf; only the upper
     bound reads strictly. *)
  type read = Find | Lower | Upper

  let strict = function Upper -> true | Find | Lower -> false

  let cached h = function
    | Find -> h.find_leaf
    | Lower -> h.lb_leaf
    | Upper -> h.ub_leaf

  let cache h r leaf =
    match r with
    | Find -> h.find_leaf <- leaf
    | Lower -> h.lb_leaf <- leaf
    | Upper -> h.ub_leaf <- leaf

  (* The first leaf right of the separator after [node]'s last key — the
     move of [scan] — or [node] itself when it is the last leaf. *)
  let next_leaf node =
    let c = up node in
    match c.parent with
    | Some p -> min_node p.children.(c.position + 1)
    | None -> node

  (* The leaf where a read of [key] finds its position.  In a session: the
     kind's cached leaf when it covers [key] — the descent from the root
     would end there too — counted as a hit; otherwise a miss, whose
     descent's leaf becomes the kind's hint.  A descent that ends past its
     leaf's last key (at a key equal to the next separator, or below it)
     caches the next leaf instead: in an ascending stream that leaf covers
     the following keys, and the left one covers none of them. *)
  let start hints r t key =
    match hints with
    | None -> seek t (strict r) key t.root
    | Some h ->
      let leaf = cached h r in
      if covers t leaf (clamped_nkeys leaf) key then begin
        hit h;
        leaf
      end
      else begin
        miss h;
        let leaf = seek t (strict r) key t.root in
        let n = clamped_nkeys leaf in
        cache h r
          (if n > 0 && t.cmp key leaf.keys.(n - 1) > 0 then next_leaf leaf else leaf);
        leaf
      end

  let mem_h hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_find_ns in
    let leaf = start hints Find t key in
    let n = clamped_nkeys leaf in
    let s = search t leaf.keys n key in
    (* past the leaf's last key, [key] can still be the next separator *)
    let r =
      found s
      || slot s = n
         && (match next_separator leaf with
            | Some k -> t.cmp k key = 0
            | None -> false)
    in
    Telemetry.hist_end Telemetry.Hist.Btree_find_ns t0;
    r

  let bound_h r hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_bound_ns in
    let b = key_at t (strict r) key (start hints r t key) in
    Telemetry.hist_end Telemetry.Hist.Btree_bound_ns t0;
    b

  let lower_bound t key = bound_h Lower None t key
  let upper_bound t key = bound_h Upper None t key

  let iter_from_h hints f t key =
    let leaf = start hints Lower t key in
    scan f leaf (index t false leaf.keys (clamped_nkeys leaf) key)

  let iter_while f t = scan f (min_node t.root) 0

  (* The full walk stays recursive: per key it is cheaper than [scan],
     which climbs and goes down again at every leaf boundary. *)
  let iter f t =
    let rec go node =
      if node != sentinel then
        if is_leaf node then
          for i = 0 to node.nkeys - 1 do
            f node.keys.(i)
          done
        else begin
          for i = 0 to node.nkeys - 1 do
            go node.children.(i);
            f node.keys.(i)
          done;
          go node.children.(node.nkeys)
        end
    in
    go t.root

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  let cardinal t = fold (fun n _ -> n + 1) 0 t
  let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

  let to_sorted_array t =
    match min_elt t with
    | None -> [||]
    | Some first ->
      let a = Array.make (cardinal t) first in
      ignore (fold (fun i k -> a.(i) <- k; i + 1) 0 t : int);
      a

  (* ------------------------------------------------------------------ *)
  (* Bulk building and partitioning                                     *)
  (* ------------------------------------------------------------------ *)

  let of_sorted_array ?capacity ctx arr =
    let t = create ?capacity ctx in
    let len = Array.length arr in
    for i = 1 to len - 1 do
      if t.cmp arr.(i - 1) arr.(i) >= 0 then
        invalid_arg "Btree.of_sorted_array: input not strictly increasing"
    done;
    if len > 0 then begin
      (* Target fill keeps headroom for later inserts; shared with the
         batch insert path via [Leaf_pack] so bulk-built and batch-grown
         trees agree on packing conventions. *)
      let target = Leaf_pack.target_fill ~capacity:t.capacity in
      (* max elements in a subtree of the given height *)
      let rec max_elems h =
        if h = 0 then target else target + ((target + 1) * max_elems (h - 1))
      in
      let rec height_for n h = if max_elems h >= n then h else height_for n (h + 1) in
      let rec build lo hi h =
        let n = hi - lo in
        if h = 0 then begin
          let leaf = alloc t ~leaf:true in
          Leaf_pack.splice ~keys:leaf.keys ~nkeys:0 ~at:0 ~src:arr
            ~src_pos:lo ~len:n;
          leaf.nkeys <- n;
          leaf
        end
        else begin
          let sub = max_elems (h - 1) in
          (* smallest child count whose subtrees can absorb the elements *)
          let k = min (max 2 (((n - 1) / (sub + 1)) + 1)) (t.capacity + 1) in
          let node = alloc t ~leaf:false in
          let elems = n - (k - 1) in
          let base = elems / k and extra = elems mod k in
          let pos = ref lo in
          for i = 0 to k - 1 do
            let sz = base + if i < extra then 1 else 0 in
            let child = build !pos (!pos + sz) (h - 1) in
            child.parent <- Some node;
            child.position <- i;
            node.children.(i) <- child;
            pos := !pos + sz;
            if i < k - 1 then begin
              node.keys.(i) <- arr.(!pos);
              incr pos
            end
          done;
          node.nkeys <- k - 1;
          node
        end
      in
      t.root <- build 0 len (height_for len 0);
      (min_node t.root).leftmost <- true;
      (max_node t.root).rightmost <- true
    end;
    t

  (* Collects whole levels top-down until at least [limit] keys are
     available (the keys of one level are sorted among themselves and are
     valid pivots on their own), then thins evenly to at most [limit]. *)
  let separators t ~limit =
    if limit <= 0 || is_empty t then [||]
    else begin
      let rec level nodes =
        let keys =
          List.concat_map
            (fun n -> Array.to_list (Array.sub n.keys 0 n.nkeys))
            nodes
        in
        if List.length keys >= limit || is_leaf (List.hd nodes) then keys
        else
          level
            (List.concat_map
               (fun n -> List.init (n.nkeys + 1) (fun i -> n.children.(i)))
               nodes)
      in
      let keys = Array.of_list (level [ t.root ]) in
      let n = Array.length keys in
      if n <= limit then keys
      else Array.init limit (fun i -> keys.(i * n / limit))
    end

  let partition t ~parts run =
    let seps = separators t ~limit:(parts - 1) in
    let nseps = Array.length seps and n = Array.length run in
    let bounds = Array.make (nseps + 2) 0 in
    bounds.(nseps + 1) <- n;
    for s = 0 to nseps - 1 do
      (* first run index >= seps.(s); searches start at the previous
         boundary, so the bounds stay non-decreasing *)
      let lo = ref bounds.(s) and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.cmp run.(mid) seps.(s) < 0 then lo := mid + 1 else hi := mid
      done;
      bounds.(s + 1) <- !lo
    done;
    bounds

  (* ------------------------------------------------------------------ *)
  (* Explicit iterators and set predicates                              *)
  (* ------------------------------------------------------------------ *)

  module Iterator = struct
    (* [inode == sentinel] encodes the end iterator.  For a leaf position,
       [idx] indexes the next element; for an inner position, [idx] is the
       separator key just reached after exhausting child [idx]. *)
    type it = { mutable inode : node; mutable idx : int }

    let at_end it = it.inode == sentinel
    let copy it = { inode = it.inode; idx = it.idx }

    let start t =
      if is_empty t then { inode = sentinel; idx = 0 }
      else { inode = min_node t.root; idx = 0 }

    let get it =
      if at_end it then invalid_arg "Btree.Iterator.get: at end"
      else it.inode.keys.(it.idx)

    (* past [node]'s last key: the next separator, or the end *)
    let climb it node =
      let c = up node in
      match c.parent with
      | None ->
        it.inode <- sentinel;
        it.idx <- 0
      | Some p ->
        it.inode <- p;
        it.idx <- c.position

    let advance it =
      if at_end it then invalid_arg "Btree.Iterator.advance: at end";
      let n = it.inode in
      if is_leaf n then
        if it.idx + 1 < n.nkeys then it.idx <- it.idx + 1 else climb it n
      else begin
        (* successor of an inner separator: leftmost leaf of the subtree to
           its right *)
        it.inode <- min_node n.children.(it.idx + 1);
        it.idx <- 0
      end

    let seek t key =
      let leaf = seek t false key t.root in
      let n = clamped_nkeys leaf in
      let it = { inode = leaf; idx = index t false leaf.keys n key } in
      if it.idx >= n then climb it leaf;
      it
  end

  (* Lockstep merge walk over both trees: [f c] sees the comparison of the
     current heads, and returns [Some answer] to stop. *)
  let lockstep a b ~on_end f =
    let ia = Iterator.start a and ib = Iterator.start b in
    let rec go () =
      match (Iterator.at_end ia, Iterator.at_end ib) with
      | false, false -> (
        let c = a.cmp (Iterator.get ia) (Iterator.get ib) in
        match f c with
        | Some r -> r
        | None ->
          if c <= 0 then Iterator.advance ia;
          if c >= 0 then Iterator.advance ib;
          go ())
      | ea, eb -> on_end ea eb
    in
    go ()

  let equal a b =
    lockstep a b ~on_end:( && ) (fun c -> if c <> 0 then Some false else None)

  let subset a b = lockstep a b ~on_end:(fun ea _ -> ea) (fun c ->
      if c < 0 then Some false else None)

  let disjoint a b =
    lockstep a b ~on_end:(fun _ _ -> true) (fun c ->
        if c = 0 then Some false else None)

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                      *)
  (* ------------------------------------------------------------------ *)

  (* Full structural report; root-only tree has height 1.  Quiescent
     traversal. *)
  let shape t =
    if is_empty t then Tree_shape.empty ~capacity:t.capacity
    else begin
      let rec depth n = if is_leaf n then 1 else 1 + depth n.children.(0) in
      let h = depth t.root in
      let level_nodes = Array.make h 0 in
      let level_keys = Array.make h 0 in
      let fill_deciles = Array.make 10 0 in
      let elements = ref 0 and nodes = ref 0 and leaves = ref 0 in
      let rec go n d =
        incr nodes;
        elements := !elements + n.nkeys;
        level_nodes.(d) <- level_nodes.(d) + 1;
        level_keys.(d) <- level_keys.(d) + n.nkeys;
        let dec = min 9 (n.nkeys * 10 / t.capacity) in
        fill_deciles.(dec) <- fill_deciles.(dec) + 1;
        if is_leaf n then incr leaves
        else
          for i = 0 to n.nkeys do
            go n.children.(i) (d + 1)
          done
      in
      go t.root 0;
      {
        Tree_shape.elements = !elements;
        nodes = !nodes;
        leaves = !leaves;
        height = h;
        capacity = t.capacity;
        fill = float_of_int !elements /. float_of_int (!nodes * t.capacity);
        level_nodes;
        level_keys;
        fill_deciles;
      }
    end

  type stats = {
    elements : int;
    nodes : int;
    leaves : int;
    height : int;
    fill : float;
  }

  let stats t =
    let s = shape t in
    {
      elements = s.Tree_shape.elements;
      nodes = s.nodes;
      leaves = s.leaves;
      height = s.height;
      fill = s.fill;
    }

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    if not (is_empty t) then begin
      let leaf_depth = ref (-1) in
      (* [lo]/[hi] are exclusive bounds on the subtree's keys. *)
      let rec go node depth lo hi =
        let n = node.nkeys in
        if n < 1 then fail "node with %d keys" n;
        if n > t.capacity then fail "node overflow: %d > %d" n t.capacity;
        for i = 0 to n - 2 do
          if t.cmp node.keys.(i) node.keys.(i + 1) >= 0 then
            fail "keys out of order at index %d" i
        done;
        Option.iter
          (fun l -> if t.cmp l node.keys.(0) >= 0 then fail "lower bound violated")
          lo;
        Option.iter
          (fun h ->
            if t.cmp node.keys.(n - 1) h >= 0 then fail "upper bound violated")
          hi;
        if is_leaf node then begin
          if !leaf_depth = -1 then leaf_depth := depth
          else if !leaf_depth <> depth then
            fail "leaves at different depths (%d vs %d)" !leaf_depth depth;
          (* edge flags must identify exactly the first/last leaf *)
          let is_first = Option.is_none lo and is_last = Option.is_none hi in
          if node.leftmost <> is_first then
            fail "leftmost flag %b on leaf with is_first=%b" node.leftmost
              is_first;
          if node.rightmost <> is_last then
            fail "rightmost flag %b on leaf with is_last=%b" node.rightmost
              is_last
        end
        else
          for i = 0 to n do
            let c = node.children.(i) in
            if c == sentinel then fail "sentinel child in occupied slot %d" i;
            (match c.parent with
            | Some p when p == node -> ()
            | _ -> fail "broken parent pointer at child %d" i);
            if c.position <> i then
              fail "broken position: child %d records %d" i c.position;
            if L.is_write_locked c.lock then fail "child %d left write-locked" i;
            let lo = if i = 0 then lo else Some node.keys.(i - 1) in
            let hi = if i = n then hi else Some node.keys.(i) in
            go c (depth + 1) lo hi
          done
      in
      if Option.is_some t.root.parent then fail "root has a parent";
      if L.is_write_locked t.root.lock || L.is_write_locked t.root_lock then
        fail "root left write-locked";
      go t.root 0 None None
    end

  (* ------------------------------------------------------------------ *)
  (* Public surface: unhinted operations and sessions                   *)
  (* ------------------------------------------------------------------ *)

  let insert t key = insert_h None t key
  let insert_batch ?pos ?len t run = insert_batch_h None ?pos ?len t run
  let mem t key = mem_h None t key
  let iter_from f t key = iter_from_h None f t key

  let insert_all dst src =
    let h = Some (make_hints ()) in
    iter (fun k -> ignore (insert_h h dst k : bool)) src

  (* A per-domain handle bundling the tree with that domain's operation
     hints; telemetry is domain-local by construction, so a session also
     delimits the telemetry shard its operations account to.  [s_h] is the
     hints pre-wrapped for the internal operations. *)
  type session = { s_tree : t; s_hints : hints; s_h : hints option }

  let session t =
    let h = make_hints () in
    { s_tree = t; s_hints = h; s_h = Some h }

  let s_tree s = s.s_tree
  let s_hints s = s.s_hints
  let s_insert s key = insert_h s.s_h s.s_tree key
  let s_insert_batch ?pos ?len s run = insert_batch_h s.s_h ?pos ?len s.s_tree run
  let s_mem s key = mem_h s.s_h s.s_tree key
  let s_lower_bound s key = bound_h Lower s.s_h s.s_tree key
  let s_upper_bound s key = bound_h Upper s.s_h s.s_tree key
  let s_iter_from f s key = iter_from_h s.s_h f s.s_tree key
end

(* A plain-key instance: no comparator context to carry. *)
module Make_plain (L : LOCK) (K : Key.ORDERED) : PLAIN with type key = K.t =
struct
  include Make (L) (Plain (K))

  let of_sorted_array ?capacity arr = of_sorted_array ?capacity () arr
end
