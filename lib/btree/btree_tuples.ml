(* The concurrent B-tree over int-array tuples ordered by a column
   permutation: the shared core over [Olock] and the comparator below.  The
   tree applies [Tuple.compare] to its order once, so every comparison is a
   single call to a closure specialised to that order — with a dedicated
   body for the ubiquitous binary relations. *)

module Tuple = struct
  type t = int array
  type ctx = { arity : int; order : int array }

  let compare { order; _ } =
    if Array.length order = 2 then begin
      let c0 = order.(0) and c1 = order.(1) in
      fun (a : t) (b : t) ->
        let x = Array.unsafe_get a c0 and y = Array.unsafe_get b c0 in
        if x < y then -1
        else if x > y then 1
        else
          let x = Array.unsafe_get a c1 and y = Array.unsafe_get b c1 in
          if x < y then -1 else if x > y then 1 else 0
    end
    else begin
      let n = Array.length order in
      fun (a : t) (b : t) ->
        let rec go i =
          if i = n then 0
          else
            let p = Array.unsafe_get order i in
            let x = Array.unsafe_get a p and y = Array.unsafe_get b p in
            if x < y then -1 else if x > y then 1 else go (i + 1)
        in
        go 0
    end

  let dummy : t = [||]
end

include Btree_core.Make (Olock) (Tuple)

let ctx ~arity ~order =
  let seen = Array.make arity false in
  if Array.length order <> arity then
    invalid_arg "Btree_tuples.create: order must be a permutation of columns";
  Array.iter
    (fun c ->
      if c < 0 || c >= arity || seen.(c) then
        invalid_arg "Btree_tuples.create: order must be a permutation of columns";
      seen.(c) <- true)
    order;
  { Tuple.arity; order }

let create ?capacity ?(binary_search = true) ~arity ~order () =
  create ?capacity ~binary_search (ctx ~arity ~order)

let arity t = (context t).Tuple.arity
