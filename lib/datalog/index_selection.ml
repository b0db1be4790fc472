(* Minimum chain cover over the subset order of index signatures.

   Distinct signatures form a partial order under set containment; by
   Dilworth's theorem the minimum number of chains covering them equals the
   maximum antichain, and for a transitively closed DAG the cover is
   computed as |V| - M where M is a maximum bipartite matching between
   copies of the vertex set with an edge (u, v) whenever u ⊂ v (König).
   Signature sets are tiny (a handful per relation), so Kuhn's augmenting
   path algorithm is plenty. *)

module IntSet = Set.Make (Int)

let set_of_sig s = IntSet.of_list (Array.to_list s)

let solve sigs =
  let distinct =
    List.sort_uniq compare
      (List.filter (fun s -> Array.length s > 0) (List.map Array.copy sigs))
  in
  let n = List.length distinct in
  let arr = Array.of_list distinct in
  let sets = Array.map set_of_sig arr in
  let subset i j = i <> j && IntSet.subset sets.(i) sets.(j) in
  (* Kuhn's matching: match_to.(j) = i means i is followed by j in a chain *)
  let match_to = Array.make n (-1) in
  let rec try_augment visited i =
    let found = ref false in
    let j = ref 0 in
    while (not !found) && !j < n do
      if subset i !j && not visited.(!j) then begin
        visited.(!j) <- true;
        if match_to.(!j) = -1 || try_augment visited match_to.(!j) then begin
          match_to.(!j) <- i;
          found := true
        end
      end;
      incr j
    done;
    !found
  in
  for i = 0 to n - 1 do
    ignore (try_augment (Array.make n false) i : bool)
  done;
  (* successor links: succ.(i) = j when i -> j is matched *)
  let succ = Array.make n (-1) in
  let has_pred = Array.make n false in
  Array.iteri
    (fun j i ->
      if i >= 0 then begin
        succ.(i) <- j;
        has_pred.(j) <- true
      end)
    match_to;
  (* build chains from the heads (no predecessor) *)
  let chains = ref [] in
  for i = 0 to n - 1 do
    if not has_pred.(i) then begin
      let rec collect k acc = if k = -1 then List.rev acc else collect succ.(k) (k :: acc) in
      chains := collect i [] :: !chains
    end
  done;
  (* order for a chain: smallest signature's columns (ascending), then each
     increment along the chain (ascending within the increment) *)
  let order_of_chain chain =
    let buf = ref [] and seen = ref IntSet.empty in
    List.iter
      (fun i ->
        let added = IntSet.diff sets.(i) !seen in
        IntSet.iter (fun c -> buf := c :: !buf) added;
        seen := IntSet.union !seen sets.(i))
      chain;
    Array.of_list (List.rev !buf)
  in
  List.map order_of_chain (List.rev !chains)

let chains_lower_bound sigs =
  let distinct =
    List.sort_uniq compare (List.filter (fun s -> Array.length s > 0) sigs)
  in
  let sets = Array.of_list (List.map set_of_sig distinct) in
  let n = Array.length sets in
  let comparable i j =
    IntSet.subset sets.(i) sets.(j) || IntSet.subset sets.(j) sets.(i)
  in
  (* brute-force maximum antichain (n is tiny) *)
  let best = ref 0 in
  let rec go i chosen count =
    if i = n then best := max !best count
    else begin
      (* skip *)
      go (i + 1) chosen count;
      (* take, if independent of all chosen *)
      if List.for_all (fun j -> not (comparable i j)) chosen then
        go (i + 1) (i :: chosen) (count + 1)
    end
  in
  go 0 [] 0;
  !best
