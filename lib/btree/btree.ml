(* The paper's concurrent B-tree over a plain ordered key: the shared core
   (btree_core.ml) over the optimistic read-write lock. *)

module Make (K : Key.ORDERED) = Btree_core.Make_plain (Olock) (K)
