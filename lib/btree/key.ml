module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val dummy : t
  val to_string : t -> string
end

module type HASHABLE = sig
  include ORDERED

  val hash : t -> int
  val equal : t -> t -> bool
end

(* splitmix64 finalizer, truncated to OCaml's 63-bit native int. *)
let mix64 x =
  let open Int64 in
  let z = of_int x in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  Stdlib.( land ) (to_int z) Stdlib.max_int

module Int = struct
  type t = int

  let compare (a : int) (b : int) = Stdlib.Int.compare a b
  let dummy = 0
  let to_string = string_of_int
  let hash = mix64
  let equal (a : int) (b : int) = a = b
end

module Pair = struct
  type t = int * int

  let compare ((a1, a2) : t) ((b1, b2) : t) =
    if a1 < b1 then -1
    else if a1 > b1 then 1
    else if a2 < b2 then -1
    else if a2 > b2 then 1
    else 0

  let dummy = (0, 0)
  let to_string (a, b) = Printf.sprintf "(%d, %d)" a b
  let hash (a, b) = mix64 (mix64 a lxor b)
  let equal ((a1, a2) : t) ((b1, b2) : t) = a1 = b1 && a2 = b2
end

module Int_array = struct
  type t = int array

  (* a top-level loop: a local one closes over the arrays, and without
     flambda that closure is allocated on every comparison *)
  let rec compare_from (a : t) (b : t) i n =
    if i = n then Stdlib.Int.compare (Array.length a) (Array.length b)
    else
      let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
      if x < y then -1 else if x > y then 1 else compare_from a b (i + 1) n

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    compare_from a b 0 (if la < lb then la else lb)

  let dummy = [||]

  let to_string a =
    "(" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ ")"

  let hash a = Array.fold_left (fun acc x -> mix64 (acc lxor mix64 x)) 0x9e3779b9 a

  (* top-level for the same reason as [compare_from] *)
  let rec equal_from (a : t) (b : t) i n =
    i = n || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1) n)

  let equal (a : t) (b : t) =
    let la = Array.length a in
    la = Array.length b && equal_from a b 0 la
end
