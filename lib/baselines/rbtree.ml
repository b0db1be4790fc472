(* Classic mutable red-black tree (CLRS-style, with a per-tree nil sentinel
   and parent pointers).  One heap node per element — deliberately the same
   memory behaviour as std::set, which is what this baseline models. *)

module Make (K : Key.ORDERED) = struct
  type key = K.t
  type color = Red | Black

  type node = {
    mutable color : color;
    mutable key : key;
    mutable left : node;
    mutable right : node;
    mutable parent : node;
  }

  type t = { nil : node; mutable root : node; mutable count : int }

  let create () =
    let rec nil =
      { color = Black; key = K.dummy; left = nil; right = nil; parent = nil }
    in
    { nil; root = nil; count = 0 }

  let is_empty t = t.root == t.nil
  let cardinal t = t.count

  let left_rotate t x =
    let y = x.right in
    x.right <- y.left;
    if y.left != t.nil then y.left.parent <- x;
    y.parent <- x.parent;
    if x.parent == t.nil then t.root <- y
    else if x == x.parent.left then x.parent.left <- y
    else x.parent.right <- y;
    y.left <- x;
    x.parent <- y

  let right_rotate t x =
    let y = x.left in
    x.left <- y.right;
    if y.right != t.nil then y.right.parent <- x;
    y.parent <- x.parent;
    if x.parent == t.nil then t.root <- y
    else if x == x.parent.right then x.parent.right <- y
    else x.parent.left <- y;
    y.right <- x;
    x.parent <- y

  let rec insert_fixup t z =
    if z.parent.color = Red then begin
      let g = z.parent.parent in
      if z.parent == g.left then begin
        let uncle = g.right in
        if uncle.color = Red then begin
          z.parent.color <- Black;
          uncle.color <- Black;
          g.color <- Red;
          insert_fixup t g
        end
        else begin
          let z = if z == z.parent.right then (let p = z.parent in left_rotate t p; p) else z in
          z.parent.color <- Black;
          z.parent.parent.color <- Red;
          right_rotate t z.parent.parent;
          insert_fixup t z
        end
      end
      else begin
        let uncle = g.left in
        if uncle.color = Red then begin
          z.parent.color <- Black;
          uncle.color <- Black;
          g.color <- Red;
          insert_fixup t g
        end
        else begin
          let z = if z == z.parent.left then (let p = z.parent in right_rotate t p; p) else z in
          z.parent.color <- Black;
          z.parent.parent.color <- Red;
          left_rotate t z.parent.parent;
          insert_fixup t z
        end
      end
    end

  let insert t k =
    let y = ref t.nil and x = ref t.root in
    let dup = ref false in
    while (not !dup) && !x != t.nil do
      y := !x;
      let c = K.compare k (!x).key in
      if c < 0 then x := (!x).left
      else if c > 0 then x := (!x).right
      else dup := true
    done;
    if !dup then false
    else begin
      let z =
        { color = Red; key = k; left = t.nil; right = t.nil; parent = !y }
      in
      if !y == t.nil then t.root <- z
      else if K.compare k (!y).key < 0 then (!y).left <- z
      else (!y).right <- z;
      insert_fixup t z;
      t.root.color <- Black;
      t.count <- t.count + 1;
      true
    end

  let mem t k =
    let rec go n =
      if n == t.nil then false
      else
        let c = K.compare k n.key in
        if c < 0 then go n.left else if c > 0 then go n.right else true
    in
    go t.root

  let min_elt t =
    if is_empty t then None
    else begin
      let n = ref t.root in
      while (!n).left != t.nil do
        n := (!n).left
      done;
      Some (!n).key
    end

  let max_elt t =
    if is_empty t then None
    else begin
      let n = ref t.root in
      while (!n).right != t.nil do
        n := (!n).right
      done;
      Some (!n).key
    end

  let bound ~strict t k =
    let rec go n best =
      if n == t.nil then best
      else
        let c = K.compare k n.key in
        let qualifies = if strict then c < 0 else c <= 0 in
        if qualifies then go n.left (Some n.key) else go n.right best
    in
    go t.root None

  let lower_bound t k = bound ~strict:false t k
  let upper_bound t k = bound ~strict:true t k

  let iter f t =
    let rec go n =
      if n != t.nil then begin
        go n.left;
        f n.key;
        go n.right
      end
    in
    go t.root

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  exception Stop

  let iter_from f t key =
    let emit k = if not (f k) then raise Stop in
    let rec emit_all n =
      if n != t.nil then begin
        emit_all n.left;
        emit n.key;
        emit_all n.right
      end
    in
    let rec go n =
      if n != t.nil then
        if K.compare n.key key >= 0 then begin
          go n.left;
          emit n.key;
          emit_all n.right
        end
        else go n.right
    in
    try go t.root with Stop -> ()

  let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    if t.root.color <> Black then fail "root is red";
    (* returns black height; checks order bounds and red-red violations *)
    let rec go n lo hi =
      if n == t.nil then 1
      else begin
        (match lo with
        | Some l -> if K.compare l n.key >= 0 then fail "order violation (lo)"
        | None -> ());
        (match hi with
        | Some h -> if K.compare n.key h >= 0 then fail "order violation (hi)"
        | None -> ());
        if n.color = Red && (n.left.color = Red || n.right.color = Red) then
          fail "red node with red child";
        let bl = go n.left lo (Some n.key) in
        let br = go n.right (Some n.key) hi in
        if bl <> br then fail "black height mismatch (%d vs %d)" bl br;
        bl + if n.color = Black then 1 else 0
      end
    in
    ignore (go t.root None None : int);
    let n = fold (fun acc _ -> acc + 1) 0 t in
    if n <> t.count then fail "count %d <> enumerated %d" t.count n

  let insert_batch t run =
    let n = Array.length run in
    for k = 1 to n - 1 do
      if K.compare run.(k - 1) run.(k) > 0 then
        invalid_arg "Rbtree.insert_batch: run not sorted"
    done;
    let fresh = ref 0 in
    Array.iter (fun k -> if insert t k then incr fresh) run;
    !fresh
end
