(* Lock striping over the sequential open-addressing table: segment = table +
   spin lock.  High hash bits select the segment so that the low bits keep
   their entropy for in-segment probing. *)

module Make (K : Key.HASHABLE) = struct
  type key = K.t

  module H = Hashset.Make (K)

  type segment = { lock : Olock.Spin.t; table : H.t }
  type t = { segments : segment array; shift : int }

  let create ?(segments = 64) ?(initial_capacity = 1024) () =
    let nseg = ref 1 in
    while !nseg < segments do
      nseg := !nseg * 2
    done;
    let per_segment = max 16 (initial_capacity / !nseg) in
    let bits =
      (* log2 of segment count *)
      let rec go n acc = if n <= 1 then acc else go (n / 2) (acc + 1) in
      go !nseg 0
    in
    {
      segments =
        Array.init !nseg (fun _ ->
            {
              lock = Olock.Spin.create ();
              table = H.create ~initial_capacity:per_segment ();
            });
      shift = 62 - bits;
    }

  let segment_of t k =
    (* top bits of the hash; [Key] hashes are non-negative 62-bit values *)
    let h = K.hash k in
    t.segments.(h lsr t.shift land (Array.length t.segments - 1))

  let insert t k =
    let s = segment_of t k in
    Olock.Spin.with_lock s.lock (fun () -> H.insert s.table k)

  let mem t k =
    let s = segment_of t k in
    Olock.Spin.with_lock s.lock (fun () -> H.mem s.table k)

  let cardinal t =
    Array.fold_left (fun acc s -> acc + H.cardinal s.table) 0 t.segments

  let iter f t = Array.iter (fun s -> H.iter f s.table) t.segments

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  let to_list t = fold (fun acc k -> k :: acc) [] t

  let check_invariants t =
    Array.iter (fun s -> H.check_invariants s.table) t.segments;
    (* routing: every key must live in the segment its hash selects *)
    Array.iteri
      (fun i s ->
        H.iter
          (fun k ->
            if segment_of t k != t.segments.(i) then
              failwith "key stored in wrong segment")
          s.table)
      t.segments
end
