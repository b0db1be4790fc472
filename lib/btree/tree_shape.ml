(* Structural report of a B-tree, shared by the functorised tree ([Btree])
   and the specialized tuple tree ([Btree_tuples]).  Extends the height/fill
   summary of [check]/[stats] into the full shape the paper reasons about:
   how node population distributes over levels and how well nodes stay
   filled under concurrent growth (PAPER §3: splits keep a balanced, densely
   filled tree; a degenerate shape would show up here first). *)

type t = {
  elements : int;
  nodes : int;
  leaves : int;
  height : int; (* root-only tree has height 1; empty tree 0 *)
  capacity : int; (* max keys per node *)
  fill : float; (* elements / (nodes * capacity) *)
  level_nodes : int array; (* length = height; index 0 is the root level *)
  level_keys : int array; (* keys stored per level *)
  fill_deciles : int array; (* length 10: nodes per 10%-of-capacity band *)
}

let empty ~capacity =
  {
    elements = 0;
    nodes = 0;
    leaves = 0;
    height = 0;
    capacity;
    fill = 0.0;
    level_nodes = [||];
    level_keys = [||];
    fill_deciles = Array.make 10 0;
  }

let int_array_json a =
  Telemetry.Json.List (Array.to_list (Array.map (fun i -> Telemetry.Json.Int i) a))

let to_json s =
  Telemetry.Json.Obj
    [
      ("elements", Telemetry.Json.Int s.elements);
      ("nodes", Telemetry.Json.Int s.nodes);
      ("leaves", Telemetry.Json.Int s.leaves);
      ("height", Telemetry.Json.Int s.height);
      ("capacity", Telemetry.Json.Int s.capacity);
      ("fill", Telemetry.Json.Float s.fill);
      ("level_nodes", int_array_json s.level_nodes);
      ("level_keys", int_array_json s.level_keys);
      ("fill_deciles", int_array_json s.fill_deciles);
    ]

let pp fmt s =
  if s.nodes = 0 then Format.fprintf fmt "empty"
  else begin
    Format.fprintf fmt "height=%d nodes=%d (%d leaves) elements=%d fill=%.0f%%"
      s.height s.nodes s.leaves s.elements (100.0 *. s.fill);
    Format.fprintf fmt " levels=[";
    Array.iteri
      (fun i n -> Format.fprintf fmt "%s%d" (if i > 0 then " " else "") n)
      s.level_nodes;
    Format.fprintf fmt "] fill-deciles=[";
    Array.iteri
      (fun i n -> Format.fprintf fmt "%s%d" (if i > 0 then " " else "") n)
      s.fill_deciles;
    Format.fprintf fmt "]"
  end
