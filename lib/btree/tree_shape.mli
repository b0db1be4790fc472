(** Structural report of a B-tree, shared by {!Btree} and {!Btree_tuples}.

    Extends the height/fill summary of [check]/[stats] into the full shape
    the paper reasons about: per-level node counts and a fill-factor
    histogram showing how densely nodes stay packed under concurrent
    growth.  Computed by a quiescent traversal — do not call while writers
    are running. *)

type t = {
  elements : int;
  nodes : int;
  leaves : int;
  height : int;  (** root-only tree has height 1; empty tree 0 *)
  capacity : int;  (** maximum keys per node *)
  fill : float;  (** [elements / (nodes * capacity)] *)
  level_nodes : int array;  (** length [height]; index 0 is the root level *)
  level_keys : int array;  (** keys stored per level *)
  fill_deciles : int array;
      (** length 10: number of nodes whose occupancy falls in each
          10%-of-capacity band *)
}

val empty : capacity:int -> t
val to_json : t -> Telemetry.Json.t
val pp : Format.formatter -> t -> unit
