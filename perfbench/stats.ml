(* Sample statistics and span arithmetic of the serve benchmark.

   Percentiles use the nearest-rank rule on integer percents, so the
   "enough samples beyond it" test is exact integer arithmetic: a p99
   over 1000 samples has rank 990 and exactly 10 samples beyond it. *)

let min_beyond = 10

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]. *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let beyond ~n p = n - rank ~n p

(* Whether a percentile rests on enough samples: at least [min_beyond]
   of them lie strictly beyond it. *)
let tail_ok ~n p = n > 0 && beyond ~n p >= min_beyond

(* The highest whole percentile, up to p99, that [n] samples support. *)
let top_percentile n =
  let rec go p = if p <= 50 || tail_ok ~n p then p else go (p - 1) in
  go 99

(* Smallest sample count at which [tail_ok] holds for [p]. *)
let min_samples p =
  let rec go n = if tail_ok ~n p then n else go (n + 1) in
  go 1

let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan else s.(min (n - 1) (rank ~n p - 1))

let median a = percentile a 50

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span recorded by the benchmark around one of its own calls into a
   layer; children are the calls made while it was open. *)
type span = {
  name : string;
  t0 : int; (* ns, monotonic *)
  mutable t1 : int;
  mutable kids : span list; (* newest first while recording *)
}

let duration s = s.t1 - s.t0

(* Open spans of the recording in progress, innermost first. *)
let stack : span list ref = ref []

(* [timed name f] runs [f] inside a span that is a child of the
   innermost open span (or a new root).  Returns [f]'s result and the
   closed span. *)
let timed name f =
  let s = { name; t0 = Telemetry.now_ns (); t1 = 0; kids = [] } in
  (match !stack with p :: _ -> p.kids <- s :: p.kids | [] -> ());
  stack := s :: !stack;
  let close () =
    s.t1 <- Telemetry.now_ns ();
    s.kids <- List.rev s.kids;
    stack := List.tl !stack
  in
  match f () with
  | v ->
    close ();
    (v, s)
  | exception e ->
    close ();
    raise e

let span name f = fst (timed name f)

(* Union length of the children's intervals, clipped to the parent. *)
let covered s =
  let ivs =
    List.sort compare
      (List.map (fun k -> (max s.t0 k.t0, min s.t1 k.t1)) s.kids)
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) ivs
  in
  total

let self_time s = duration s - covered s

(* Share of a span that no child covers. *)
let uncovered_frac s =
  let d = duration s in
  if d <= 0 then 0. else float_of_int (self_time s) /. float_of_int d

(* The ledger invariant, checked recursively: every child lies inside
   its parent, siblings do not overlap, so children plus self time sum
   exactly to the parent.  Returns the offending span's name on
   failure. *)
let rec check_sums s =
  let inside k = k.t0 >= s.t0 && k.t1 <= s.t1 && k.t1 >= k.t0 in
  let sum = List.fold_left (fun acc k -> acc + duration k) 0 s.kids in
  if not (List.for_all inside s.kids) || sum > duration s
     || sum + self_time s <> duration s
  then Error s.name
  else
    List.fold_left
      (fun acc k -> match acc with Error _ -> acc | Ok () -> check_sums k)
      (Ok ()) s.kids

(* Summed duration (ns) of every span named [name] in the tree. *)
let rec total_ns name s =
  List.fold_left
    (fun acc k -> acc + total_ns name k)
    (if s.name = name then duration s else 0)
    s.kids
