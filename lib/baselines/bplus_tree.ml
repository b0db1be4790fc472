(* B+-tree: elements in leaves only, separators in inner nodes, preemptive
   top-down splitting (full children are split during descent, so splits
   never propagate upward), chained leaves for scans. *)

module Make (K : Key.ORDERED) = struct
  type key = K.t

  type node = Leaf of leaf | Inner of inner

  and leaf = {
    lkeys : key array;
    mutable ln : int;
    mutable next : leaf option;
  }

  and inner = {
    ikeys : key array; (* separator i = smallest key of subtree i+1 *)
    mutable ikn : int;
    children : node array;
  }

  type t = {
    capacity : int;
    mutable root : node option;
    mutable count : int;
  }

  let create ?(node_capacity = 32) () =
    if node_capacity < 4 then
      invalid_arg "Bplus_tree.create: node_capacity must be >= 4";
    { capacity = node_capacity; root = None; count = 0 }

  let is_empty t = t.root = None
  let cardinal t = t.count

  let alloc_leaf t = { lkeys = Array.make t.capacity K.dummy; ln = 0; next = None }

  let alloc_inner t =
    {
      ikeys = Array.make t.capacity K.dummy;
      ikn = 0;
      children = Array.make (t.capacity + 1) (Leaf { lkeys = [||]; ln = 0; next = None });
    }

  (* smallest index with keys.(i) >= key *)
  let lower_idx keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare (Array.unsafe_get keys mid) key < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* smallest index with keys.(i) > key *)
  let upper_idx keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare (Array.unsafe_get keys mid) key <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let node_full t = function
    | Leaf l -> l.ln >= t.capacity
    | Inner i -> i.ikn >= t.capacity

  (* Split the full child at slot [ci] of [parent]; the separator moves (for
     inner children) or is copied (for leaf children) into [parent], which is
     guaranteed non-full by the preemptive descent. *)
  let split_child t parent ci =
    let shift_parent sep right =
      let n = parent.ikn in
      Array.blit parent.ikeys ci parent.ikeys (ci + 1) (n - ci);
      parent.ikeys.(ci) <- sep;
      Array.blit parent.children (ci + 1) parent.children (ci + 2) (n - ci);
      parent.children.(ci + 1) <- right;
      parent.ikn <- n + 1
    in
    match parent.children.(ci) with
    | Leaf l ->
      let mid = l.ln / 2 in
      let r = alloc_leaf t in
      let rcount = l.ln - mid in
      Array.blit l.lkeys mid r.lkeys 0 rcount;
      r.ln <- rcount;
      l.ln <- mid;
      r.next <- l.next;
      l.next <- Some r;
      shift_parent r.lkeys.(0) (Leaf r)
    | Inner i ->
      let mid = i.ikn / 2 in
      let sep = i.ikeys.(mid) in
      let r = alloc_inner t in
      let rcount = i.ikn - mid - 1 in
      Array.blit i.ikeys (mid + 1) r.ikeys 0 rcount;
      Array.blit i.children (mid + 1) r.children 0 (rcount + 1);
      r.ikn <- rcount;
      i.ikn <- mid;
      shift_parent sep (Inner r)

  let insert t key =
    (match t.root with
    | None ->
      let l = alloc_leaf t in
      t.root <- Some (Leaf l)
    | Some root ->
      if node_full t root then begin
        (* grow: new root with the old root as single child, then split *)
        let nr = alloc_inner t in
        nr.children.(0) <- root;
        nr.ikn <- 0;
        split_child t nr 0;
        t.root <- Some (Inner nr)
      end);
    let rec go node =
      match node with
      | Leaf l ->
        let i = lower_idx l.lkeys l.ln key in
        if i < l.ln && K.compare l.lkeys.(i) key = 0 then false
        else begin
          Array.blit l.lkeys i l.lkeys (i + 1) (l.ln - i);
          l.lkeys.(i) <- key;
          l.ln <- l.ln + 1;
          true
        end
      | Inner inner ->
        let ci = upper_idx inner.ikeys inner.ikn key in
        if node_full t inner.children.(ci) then begin
          split_child t inner ci;
          (* re-route: the separator just inserted may redirect the key *)
          let ci = upper_idx inner.ikeys inner.ikn key in
          go inner.children.(ci)
        end
        else go inner.children.(ci)
    in
    let root = match t.root with Some r -> r | None -> assert false in
    let added = go root in
    if added then t.count <- t.count + 1;
    added

  let rec leftmost = function
    | Leaf l -> l
    | Inner i -> leftmost i.children.(0)

  let rec find_leaf node key =
    match node with
    | Leaf l -> l
    | Inner i -> find_leaf i.children.(upper_idx i.ikeys i.ikn key) key

  let mem t key =
    match t.root with
    | None -> false
    | Some root ->
      let l = find_leaf root key in
      let i = lower_idx l.lkeys l.ln key in
      i < l.ln && K.compare l.lkeys.(i) key = 0

  let min_elt t =
    match t.root with
    | None -> None
    | Some root ->
      let l = leftmost root in
      if l.ln = 0 then None else Some l.lkeys.(0)

  let max_elt t =
    match t.root with
    | None -> None
    | Some root ->
      let rec go = function
        | Leaf l -> if l.ln = 0 then None else Some l.lkeys.(l.ln - 1)
        | Inner i -> go i.children.(i.ikn)
      in
      go root

  (* first leaf position with element >= (or >) key, following the leaf
     chain when the position falls off the end of a leaf *)
  let seek ~strict t key =
    match t.root with
    | None -> None
    | Some root ->
      let l = find_leaf root key in
      let i =
        if strict then upper_idx l.lkeys l.ln key else lower_idx l.lkeys l.ln key
      in
      if i < l.ln then Some (l, i)
      else (
        match l.next with
        | Some nl when nl.ln > 0 -> Some (nl, 0)
        | _ -> None)

  let lower_bound t key =
    match seek ~strict:false t key with
    | Some (l, i) -> Some l.lkeys.(i)
    | None -> None

  let upper_bound t key =
    match seek ~strict:true t key with
    | Some (l, i) -> Some l.lkeys.(i)
    | None -> None

  let iter f t =
    match t.root with
    | None -> ()
    | Some root ->
      let rec chain l =
        for i = 0 to l.ln - 1 do
          f l.lkeys.(i)
        done;
        match l.next with Some n -> chain n | None -> ()
      in
      chain (leftmost root)

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  exception Stop

  let iter_from f t key =
    match seek ~strict:false t key with
    | None -> ()
    | Some (l0, i0) ->
      let emit k = if not (f k) then raise Stop in
      let rec chain l i =
        for j = i to l.ln - 1 do
          emit l.lkeys.(j)
        done;
        match l.next with Some n -> chain n 0 | None -> ()
      in
      (try chain l0 i0 with Stop -> ())

  let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

  let to_sorted_array t =
    let n = cardinal t in
    if n = 0 then [||]
    else begin
      let first = match min_elt t with Some k -> k | None -> assert false in
      let a = Array.make n first in
      let i = ref 0 in
      iter
        (fun k ->
          a.(!i) <- k;
          incr i)
        t;
      a
    end

  let of_sorted_array ?node_capacity arr =
    let t = create ?node_capacity () in
    let len = Array.length arr in
    for i = 1 to len - 1 do
      if K.compare arr.(i - 1) arr.(i) >= 0 then
        invalid_arg "Bplus_tree.of_sorted_array: input not strictly increasing"
    done;
    if len > 0 then begin
      let target = max 2 (t.capacity * 3 / 4) in
      (* build the leaf level *)
      let nleaves = (len + target - 1) / target in
      let leaves =
        Array.init nleaves (fun i ->
            let lo = i * target in
            let hi = min len (lo + target) in
            let l = alloc_leaf t in
            Array.blit arr lo l.lkeys 0 (hi - lo);
            l.ln <- hi - lo;
            l)
      in
      for i = 0 to nleaves - 2 do
        leaves.(i).next <- Some leaves.(i + 1)
      done;
      (* build inner levels; separator of child i+1 = its smallest key *)
      let rec build (nodes : (node * key) array) =
        (* each entry: (node, smallest key of its subtree) *)
        if Array.length nodes = 1 then fst nodes.(0)
        else begin
          let n = Array.length nodes in
          let group = max 2 (t.capacity * 3 / 4) in
          let nparents = (n + group - 1) / group in
          (* even distribution so no parent ends up with fewer than two
             children (which would leave it without separators) *)
          let base = n / nparents and extra = n mod nparents in
          let start = ref 0 in
          let parents =
            Array.init nparents (fun pi ->
                let lo = !start in
                let hi = lo + base + if pi < extra then 1 else 0 in
                start := hi;
                let inner = alloc_inner t in
                for i = lo to hi - 1 do
                  let child, smallest = nodes.(i) in
                  inner.children.(i - lo) <- child;
                  if i > lo then inner.ikeys.(i - lo - 1) <- smallest
                done;
                inner.ikn <- hi - lo - 1;
                (Inner inner, snd nodes.(lo)))
          in
          build parents
        end
      in
      let base =
        Array.map (fun l -> (Leaf l, l.lkeys.(0))) leaves
      in
      t.root <- Some (build base);
      t.count <- len
    end;
    t

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    match t.root with
    | None -> if t.count <> 0 then fail "empty tree with count %d" t.count
    | Some root ->
      let leaf_depth = ref (-1) in
      (* bounds: lo inclusive, hi exclusive *)
      let rec go node depth lo hi =
        match node with
        | Leaf l ->
          if !leaf_depth = -1 then leaf_depth := depth
          else if !leaf_depth <> depth then fail "leaves at different depths";
          if l.ln = 0 && t.count > 0 then fail "empty leaf";
          for i = 0 to l.ln - 2 do
            if K.compare l.lkeys.(i) l.lkeys.(i + 1) >= 0 then
              fail "leaf keys out of order"
          done;
          (match lo with
          | Some b ->
            if l.ln > 0 && K.compare l.lkeys.(0) b < 0 then
              fail "leaf lower bound violated"
          | None -> ());
          (match hi with
          | Some b ->
            if l.ln > 0 && K.compare l.lkeys.(l.ln - 1) b >= 0 then
              fail "leaf upper bound violated"
          | None -> ())
        | Inner i ->
          if i.ikn = 0 then fail "inner node without separators";
          for j = 0 to i.ikn - 2 do
            if K.compare i.ikeys.(j) i.ikeys.(j + 1) >= 0 then
              fail "separators out of order"
          done;
          for j = 0 to i.ikn do
            let lo = if j = 0 then lo else Some i.ikeys.(j - 1) in
            let hi = if j = i.ikn then hi else Some i.ikeys.(j) in
            go i.children.(j) (depth + 1) lo hi
          done
      in
      go root 0 None None;
      (* leaf chain must enumerate exactly the sorted contents *)
      let n = fold (fun acc _ -> acc + 1) 0 t in
      if n <> t.count then fail "count %d <> enumerated %d" t.count n;
      let prev = ref None in
      iter
        (fun k ->
          (match !prev with
          | Some p ->
            if K.compare p k >= 0 then fail "leaf chain out of order"
          | None -> ());
          prev := Some k)
        t

  let insert_batch t run =
    let n = Array.length run in
    for k = 1 to n - 1 do
      if K.compare run.(k - 1) run.(k) > 0 then
        invalid_arg "Bplus_tree.insert_batch: run not sorted"
    done;
    let fresh = ref 0 in
    Array.iter (fun k -> if insert t k then incr fresh) run;
    !fresh
end
