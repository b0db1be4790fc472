(* Leaf-packing conventions of the bulk build.

   [of_sorted_array] packs each node to [target_fill] and copies sorted
   slices in with [splice].  The leaf-write step of the tree's write path
   splices the same way, two blits per gap group whatever its length, but
   inline: its group starts with the key its target certified, which a
   single insert does not hold in an array. *)

(* Number of keys a bulk operation packs into a node of the given capacity:
   3/4 full, leaving headroom so the first few later point inserts do not
   immediately split every node the bulk path produced. *)
let target_fill ~capacity = max 1 (capacity * 3 / 4)

(* [splice ~keys ~nkeys ~at ~src ~src_pos ~len] inserts
   [src.(src_pos .. src_pos+len-1)] at index [at] of [keys] (which holds
   [nkeys] live entries), shifting the tail right — the bulk counterpart of
   a single-key leaf insert, costing two blits regardless of [len].  The
   caller guarantees capacity ([nkeys + len <= Array.length keys]) and
   order (all spliced keys fall strictly between [keys.(at - 1)] and
   [keys.(at)]). *)
let splice ~keys ~nkeys ~at ~src ~src_pos ~len =
  Array.blit keys at keys (at + len) (nkeys - at);
  Array.blit src src_pos keys at len
