(* The concurrent B-tree over int-array tuples ordered by a column
   permutation: the shared core over [Olock] and the column-order
   comparator of [Key.Int_array], which the tree applies to its order once
   at creation. *)

module Tuple = struct
  type t = int array
  type ctx = { arity : int; order : int array }

  let compare { order; _ } = Key.Int_array.compare_columns order
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
