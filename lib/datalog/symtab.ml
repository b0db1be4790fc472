(* Open addressing with linear probing over one flat int array.  A slot
   packs the string's [Hashtbl.hash] (30 bits) above its id + 1, and 0
   marks an empty slot.  A probe compares strings only when the stored
   hash equals the probe's, and a resize re-places every slot from its
   stored hash without reading a string. *)

type t = {
  mutable slots : int array; (* power-of-two length, at most half full *)
  mutable by_id : string array;
  mutable next : int;
}

let id_bits = 32
let id_mask = (1 lsl id_bits) - 1
let create () = { slots = Array.make 128 0; by_id = Array.make 64 ""; next = 0 }

(* The slot holding [s], whose hash is [h], or the empty slot where it
   belongs. *)
let locate t s h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let slot = Array.unsafe_get slots i in
    if
      slot = 0
      || slot lsr id_bits = h
         && String.equal t.by_id.((slot land id_mask) - 1) s
    then i
    else go ((i + 1) land mask)
  in
  go (h land mask)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun slot ->
      if slot <> 0 then begin
        let i = ref ((slot lsr id_bits) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- slot
      end)
    t.slots;
  t.slots <- slots

let intern t s =
  let h = Hashtbl.hash s in
  let i = locate t s h in
  let slot = t.slots.(i) in
  if slot <> 0 then (slot land id_mask) - 1
  else begin
    let id = t.next in
    t.next <- id + 1;
    if id >= Array.length t.by_id then begin
      let bigger = Array.make (2 * Array.length t.by_id) "" in
      Array.blit t.by_id 0 bigger 0 (Array.length t.by_id);
      t.by_id <- bigger
    end;
    t.by_id.(id) <- s;
    t.slots.(i) <- (h lsl id_bits) lor (id + 1);
    if 2 * t.next > Array.length t.slots then grow t;
    id
  end

let find_opt t s =
  let slot = t.slots.(locate t s (Hashtbl.hash s)) in
  if slot = 0 then None else Some ((slot land id_mask) - 1)

let name t id =
  if id < 0 || id >= t.next then raise Not_found else t.by_id.(id)

let size t = t.next
