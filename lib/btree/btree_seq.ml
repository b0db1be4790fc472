(* The sequential twin of [Btree]: the same core over a lock that does
   nothing, so "seq btree" versus "btree" in Fig. 3 measures exactly the
   cost of the optimistic locking. *)

module Nolock : Olock.S = struct
  type t = unit
  type lease = int

  let create () = ()
  let start_read () = 0
  let valid () _ = true
  let end_read () _ = true
  let try_upgrade_to_write () _ = true
  let try_start_write () = true
  let start_write () = ()
  let end_write () = ()
  let abort_write () = ()
  let is_write_locked () = false
  let version () = 0
end

module Make (K : Key.ORDERED) = Btree_core.Make_plain (Nolock) (K)
