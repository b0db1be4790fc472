(* Open-addressing hash set with linear probing and power-of-two capacity.
   Slot states live in a byte array next to the key array: 0 = empty,
   1 = occupied (no deletion, as Datalog relations only grow). *)

module Make (K : Key.HASHABLE) = struct
  type key = K.t

  type t = {
    mutable keys : key array;
    mutable state : Bytes.t;
    mutable mask : int; (* capacity - 1 *)
    mutable count : int;
  }

  let create ?(initial_capacity = 16) () =
    let cap = ref 16 in
    while !cap < initial_capacity do
      cap := !cap * 2
    done;
    {
      keys = Array.make !cap K.dummy;
      state = Bytes.make !cap '\000';
      mask = !cap - 1;
      count = 0;
    }

  let cardinal t = t.count
  let is_empty t = t.count = 0
  let load_factor t = float_of_int t.count /. float_of_int (t.mask + 1)

  (* Returns the slot holding [k], or the first empty slot of its probe
     sequence. *)
  let probe t k =
    let i = ref (K.hash k land t.mask) in
    let continue = ref true in
    while !continue do
      if Bytes.unsafe_get t.state !i = '\000' then continue := false
      else if K.equal (Array.unsafe_get t.keys !i) k then continue := false
      else i := (!i + 1) land t.mask
    done;
    !i

  let mem t k =
    let i = probe t k in
    Bytes.unsafe_get t.state i <> '\000'

  let grow t =
    let old_keys = t.keys and old_state = t.state in
    let cap = (t.mask + 1) * 2 in
    t.keys <- Array.make cap K.dummy;
    t.state <- Bytes.make cap '\000';
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if Bytes.unsafe_get old_state i <> '\000' then begin
          let j = probe t k in
          t.keys.(j) <- k;
          Bytes.unsafe_set t.state j '\001'
        end)
      old_keys

  let insert t k =
    let i = probe t k in
    if Bytes.unsafe_get t.state i <> '\000' then false
    else begin
      t.keys.(i) <- k;
      Bytes.unsafe_set t.state i '\001';
      t.count <- t.count + 1;
      if 10 * t.count > 7 * (t.mask + 1) then grow t;
      true
    end

  let iter f t =
    let state = t.state and keys = t.keys in
    for i = 0 to t.mask do
      if Bytes.unsafe_get state i <> '\000' then f (Array.unsafe_get keys i)
    done

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  let to_list t = fold (fun acc k -> k :: acc) [] t

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    let n = fold (fun acc _ -> acc + 1) 0 t in
    if n <> t.count then fail "count %d <> enumerated %d" t.count n;
    if load_factor t > 0.71 then fail "load factor too high: %f" (load_factor t);
    (* every stored key must be findable through its probe sequence *)
    iter (fun k -> if not (mem t k) then fail "key unreachable by probing") t
end
