(** Leaf-packing conventions of the bulk build ([of_sorted_array]): how
    full it packs a node and how it copies a sorted slice in. *)

val target_fill : capacity:int -> int
(** Keys a bulk build packs per node: 3/4 of [capacity] (at least 1),
    leaving headroom for later point inserts. *)

val splice :
  keys:'a array ->
  nkeys:int ->
  at:int ->
  src:'a array ->
  src_pos:int ->
  len:int ->
  unit
(** Splice [src.(src_pos..src_pos+len-1)] into [keys] at [at], shifting the
    [nkeys - at] tail entries right; two blits regardless of [len].  The
    caller guarantees room and ordering. *)
