(* Chaos stress harness: randomized multi-domain schedules under active
   failpoints, with a full structural audit after every run.

     stress --seed 42 --domains 4 --runs 100

   Each run derives its own seed from the base seed and the run index and
   prints it, so any failing run replays deterministically:

     stress --seed 42 --domains 4 --replay 17

   Runs cycle through six scenarios:
     opt   — functor B-tree, optimistic descents under forced validation
             failures, descent yields and split delays;
     pess  — same workload with a zero restart budget, so every descent
             takes the pessimistic write-locked fallback;
     pool  — pool.job.raise armed: injected worker faults must surface as
             aggregated [Pool_failure]s (never a dead domain) and the tree
             must stay consistent for the workers that survived;
     tup   — the tuple B-tree under the same chaos mix (one scenario body
             serves both trees: a seeded tree, per-key session inserts
             racing separator-partitioned batch merges);
     serve — a resident datalog_serve instance under connection drops,
             admission-busy faults and failed flips, driven by concurrent
             client domains, audited through the full relation, each
             client's slice and sampled keys;
     wal   — durability drills: torn WAL appends (wal.write.short) must
             recover to the cleanly-appended prefix, and a kill -9 of a
             --durability strict server between acks must recover exactly
             the acked state.

   After every run the failpoints are disarmed and the tree is audited:
   [check_invariants] plus an exact cardinality check against the distinct
   keys of the slices whose workers completed (for serve: the acked facts
   against the served relation). *)

open Cmdliner
module T = Btree.Make (Key.Int)

let mix seed salt =
  let z = (seed + ((salt + 1) * 0x9E3779B9)) land max_int in
  let z = z lxor (z lsr 16) in
  let z = z * 0x85EBCA6B land max_int in
  let z = z lxor (z lsr 13) in
  if z = 0 then 0x2545F491 else z

let rng_next st =
  let r = !st in
  let r = r lxor (r lsl 13) land max_int in
  let r = r lxor (r lsr 7) in
  let r = r lxor (r lsl 17) land max_int in
  let r = if r = 0 then 0x2545F491 else r in
  st := r;
  r

let n_scenarios = 6

let scenario_name = function
  | 0 -> "opt"
  | 1 -> "pess"
  | 2 -> "pool"
  | 3 -> "tup"
  | 4 -> "serve"
  | _ -> "wal"

let tree_points = "olock.validate.force_fail:12+btree.descent.yield:6+btree.split.delay:6"
let pool_points = tree_points ^ "+pool.job.raise:4"
let serve_points = "server.conn.drop:12+server.phase.busy:6+server.flip.fail:8"
let wal_points = "wal.write.short:4"

(* Contiguous partition of [0, n) into [workers] near-equal slices. *)
let slice ~workers ~n w =
  let base = n / workers and extra = n mod workers in
  let lo = (w * base) + min w extra in
  (lo, lo + base + if w < extra then 1 else 0)

let distinct_sorted cmp arr =
  Array.sort cmp arr;
  let d = ref 0 in
  Array.iteri
    (fun i k -> if i = 0 || cmp arr.(i - 1) k <> 0 then incr d)
    arr;
  !d

exception Audit_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Audit_failure m)) fmt

(* serve scenario: a resident server under connection drops,
   admission-busy faults and failed flips.  Client domains assert
   disjoint facts with bounded retries (busy → back off, dropped
   connection → reconnect); chaos drops fire before a request is parsed,
   so an acked fact is always applied and an unacked one never is.  A
   failed flip leaves the resident engine part-way and the server
   rebuilds it from its base facts — the audit can demand the served
   relation equal the acked set exactly.  The audit reads it three ways:
   the whole relation ([out _ _]), each client's slice ([out _ w], the
   filtered fallback: no index of [out] starts with column 1) and 20
   sampled keys ([out i _], a range scan of the primary); all three must
   agree with each other and with the acked set. *)
let serve_program =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl out(a:number, b:number)\n.output out\n\
   out(x, y) :- kv(x, y).\n"

let serve_run ~domains ~nkeys ~seed r =
  ignore seed;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stress-serve-%d-%d.sock" (Unix.getpid ()) r)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let addr =
    match Telemetry_server.parse_addr ("unix:" ^ sock) with
    | Ok a -> a
    | Error m -> failf "bad socket addr: %s" m
  in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers = 2;
      flip_pending = 64;
      flip_interval_ms = 5;
    }
  in
  match Dl_server.start cfg with
  | Error m -> failf "server start: %s" m
  | Ok srv ->
    let audit = ref (0, 0) in
    (try
       (* Install the program through a retry session.  The conn-drop
          failpoint severs connections before any buffered request is
          parsed, so retrying a transport fault over a fresh connection is
          safe (and RULES re-installation is idempotent regardless); an
          ERR reply is never retried by the session. *)
       (match
          Dl_client.with_retry ~attempts:20 ~backoff_ms:5.0 ~seed addr
            (fun sess ->
              Dl_client.retry sess (fun c -> Dl_client.rules c serve_program))
        with
       | Ok (Dl_client.Ok_ _) -> ()
       | Ok (Dl_client.Err (code, m)) -> failf "RULES: %s %s" code m
       | Ok _ -> failf "RULES: bad reply"
       | Error m -> failf "RULES: %s" m);
       (* Each client owns [lo, hi) of the key space; b is the client id,
          so every acked (a, b) is globally unique. *)
       let acked = Array.make domains [] in
       let give_ups = Array.make domains 0 in
       let clients =
         List.init domains (fun w ->
             Domain.spawn (fun () ->
                 let lo, hi = slice ~workers:domains ~n:nkeys w in
                 let sess =
                   Dl_client.session ~attempts:10 ~backoff_ms:5.0
                     ~seed:(mix seed w) addr
                 in
                 for i = lo to hi - 1 do
                   (* The session retries dropped connections internally;
                      ERR busy is the scheduler's answer, so the backoff
                      for it lives here in the workload, not the client. *)
                   let rec try_assert tries =
                     if tries <= 0 then give_ups.(w) <- give_ups.(w) + 1
                     else
                       match
                         Dl_client.retry sess (fun c ->
                             Dl_client.assert_fact c "kv"
                               [ string_of_int i; string_of_int w ])
                       with
                       | Ok (Dl_client.Ok_ _) -> acked.(w) <- i :: acked.(w)
                       | Ok (Dl_client.Err ("busy", _)) ->
                         Unix.sleepf 0.002;
                         try_assert (tries - 1)
                       | Ok _ -> give_ups.(w) <- give_ups.(w) + 1
                       | Error _ ->
                         (* connect/transport budget spent under chaos *)
                         give_ups.(w) <- give_ups.(w) + 1
                   in
                   try_assert 20;
                   if i land 31 = 0 then
                     ignore
                       (Dl_client.retry sess (fun c ->
                            Dl_client.query c "out" [ "_"; string_of_int w ])
                         : (Dl_client.reply, string) result)
                 done;
                 Dl_client.disconnect sess))
       in
       List.iter Domain.join clients;
       (* audit with the failpoints quiet *)
       Chaos.disable ();
       let expected =
         Array.to_list acked
         |> List.mapi (fun w keys ->
                List.map (fun i -> Printf.sprintf "%d\t%d" i w) keys)
         |> List.concat
       in
       let uncertain = Array.fold_left ( + ) 0 give_ups in
       (Dl_client.with_retry ~attempts:5 ~backoff_ms:5.0 addr @@ fun sess ->
        let rpc f = Dl_client.retry sess f in
        let query pats =
          match rpc (fun c -> Dl_client.query c "out" pats) with
          | Ok (Dl_client.Data (_, rows)) -> List.sort_uniq compare rows
          | Ok (Dl_client.Err (code, m)) ->
            failf "audit query out %s: %s %s" (String.concat " " pats) code m
          | Ok _ | Error _ ->
            failf "audit query out %s: bad reply" (String.concat " " pats)
        in
        let served = query [ "_"; "_" ] in
        let served_set = Hashtbl.create (List.length served) in
        List.iter (fun row -> Hashtbl.replace served_set row ()) served;
        List.iter
          (fun row ->
            if not (Hashtbl.mem served_set row) then
              failf "acked fact %S missing from served relation" row)
          expected;
        let n_expected = List.length expected in
        let n_served = List.length served in
        if n_served < n_expected || n_served > n_expected + uncertain then
          failf "served %d tuples, expected %d (+%d uncertain)" n_served
            n_expected uncertain;
        (* the indexed paths agree with the full audit: each client's
           slice through the filtered fallback ([out _ w]), and sampled
           keys through a range scan of the primary ([out i _]) *)
        let field k row = List.nth (String.split_on_char '\t' row) k in
        let agree what pats keep =
          let want = List.filter keep served and got = query pats in
          if got <> want then
            failf "QUERY out %s (%s): %d rows, the full audit has %d"
              (String.concat " " pats) what (List.length got)
              (List.length want);
          got
        in
        for w = 0 to domains - 1 do
          let w_s = string_of_int w in
          let got = agree "client slice" [ "_"; w_s ] (fun row -> field 1 row = w_s) in
          let n_acked = List.length acked.(w) in
          let n = List.length got in
          if n < n_acked || n > n_acked + give_ups.(w) then
            failf "client %d: served %d tuples, acked %d (+%d uncertain)" w n
              n_acked give_ups.(w)
        done;
        for j = 0 to 19 do
          let i = mix seed (1000 + j) mod max 1 nkeys in
          let i_s = string_of_int i in
          let got = agree "sampled key" [ i_s; "_" ] (fun row -> field 0 row = i_s) in
          let owner = ref (-1) in
          Array.iteri (fun w keys -> if List.mem i keys then owner := w) acked;
          if !owner >= 0 && got <> [ Printf.sprintf "%d\t%d" i !owner ] then
            failf "acked key %d: served %d rows" i (List.length got)
        done;
        (match rpc Dl_client.stats with
         | Ok (Dl_client.Data (_, lines)) ->
           List.iter
             (fun l ->
               match String.index_opt l '=' with
               | Some eq
                 when String.sub l 0 eq = "phase_violations"
                      && String.sub l (eq + 1) (String.length l - eq - 1)
                         <> "0" ->
                 failf "server reported %s" l
               | _ -> ())
             lines
         | Ok _ | Error _ -> failf "audit stats: bad reply");
        match rpc Dl_client.shutdown with
        | Ok (Dl_client.Ok_ _) -> ()
        | Ok _ | Error _ -> failf "shutdown: bad reply");
       audit := (List.length expected, 0)
     with e ->
       Dl_server.stop srv;
       raise e);
    Dl_server.stop srv;
    !audit

(* wal scenario: durability drills on throwaway data dirs.

   Phase 1 (wal.write.short armed): drive a {!Wal} directly, appending
   fact records until the failpoint tears one mid-write.  In half the
   runs the first half of the records is appended unarmed and compacted
   into a snapshot segment before the armed appends, so the tear lands
   in a snapshot's tail.  Reopening the dir must then recover exactly
   the cleanly-appended prefix, in order — the torn tail silently
   truncated and flagged, never an error.

   Phase 2 (chaos quiet): crash-kill-recover differential.  A child
   process (this binary re-exec'd with the hidden --wal-child flag; a
   plain fork is forbidden once any domain has existed) serves a data
   dir under --durability strict; the parent acks facts over the
   protocol and SIGKILLs the child *between* acks, so the acked set is
   exactly the admitted set; a recovery server on the same dir must
   then serve exactly the acked facts. *)

let wal_child_cfg addr dir =
  {
    (Dl_server.default_config addr) with
    Dl_server.workers = 2;
    flip_pending = 8;
    flip_interval_ms = 5;
    data_dir = Some dir;
    durability = Wal.D_strict;
  }

(* --wal-child: the server half of the kill -9 drill, in its own process
   so SIGKILL hits a real crash boundary (no atexit, no flush). *)
let wal_child_main addr_s dir =
  match Telemetry_server.parse_addr addr_s with
  | Error m ->
    Printf.eprintf "--wal-child: %s\n" m;
    exit 2
  | Ok addr -> (
    match Dl_server.start (wal_child_cfg addr dir) with
    | Error m ->
      Printf.eprintf "wal child: %s\n" m;
      exit 3
    | Ok srv -> Dl_server.wait srv)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let wal_run ~nkeys ~seed r =
  let tmp = Filename.get_temp_dir_name () in
  let stamp = Printf.sprintf "%d-%d" (Unix.getpid ()) r in
  let st = ref (mix seed 0x3A1D) in
  (* ---- phase 1: torn-append/recover drill on a bare Wal ---- *)
  let dir1 = Filename.concat tmp ("stress-wal-torn-" ^ stamp) in
  rm_rf dir1;
  let appended = ref [] and torn = ref false in
  (match Wal.open_dir ~durability:Wal.D_none dir1 with
  | Error m -> failf "wal open: %s" m
  | Ok (w, rv0) ->
    if rv0.Wal.rv_entries <> [] then failf "fresh wal dir not empty";
    let budget = max 16 (min 64 nkeys) in
    (* Half the runs (a seeded coin) append the first half of the budget
       with the tear disarmed — at 1 in 4 it would almost always fire
       first — and compact there, the appended prefix as the snapshot,
       so the armed appends that follow tear the tail of a snapshot
       segment; the others tear a fresh segment.  The snapshot keeps
       the prefix's order, which the exact-list check below relies on. *)
    let snapshot = rng_next st land 1 = 0 in
    let points = Chaos.armed_points () and chaos_seed = Chaos.seed () in
    if snapshot then Chaos.disable ();
    for i = 0 to budget - 1 do
      if snapshot && i = budget / 2 then begin
        (match Wal.compact w ~seq:i [ ("kv", List.rev !appended) ] with
        | Ok () -> ()
        | Error m -> failf "wal compact: %s" m);
        Chaos.configure ~seed:chaos_seed points
      end;
      if not !torn then
        let line = Printf.sprintf "%d\t%d" i (rng_next st mod 1000) in
        match Wal.append w (Wal.Facts ("kv", [ line ])) with
        | Ok () -> appended := line :: !appended
        | Error _ -> torn := true
    done;
    Wal.close w);
  (match Wal.open_dir ~durability:Wal.D_none dir1 with
  | Error m -> failf "wal reopen after torn tail: %s" m
  | Ok (w, rv) ->
    Wal.close w;
    let got =
      List.concat_map
        (function Wal.Facts (_, lines) -> lines | _ -> [])
        rv.Wal.rv_entries
    in
    if got <> List.rev !appended then
      failf "torn-tail recovery: %d lines, expected the %d appended, in order"
        (List.length got)
        (List.length !appended);
    if !torn && not rv.Wal.rv_torn_tail then
      failf "torn tail not flagged by recovery");
  rm_rf dir1;
  Chaos.disable ();
  (* ---- phase 2: kill -9 a strict server between acks, recover ---- *)
  let dir2 = Filename.concat tmp ("stress-wal-srv-" ^ stamp) in
  let sock = Filename.concat tmp ("stress-wal-" ^ stamp ^ ".sock") in
  let rsock = Filename.concat tmp ("stress-wal-" ^ stamp ^ "-r.sock") in
  rm_rf dir2;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; rsock ];
  let parse p =
    match Telemetry_server.parse_addr ("unix:" ^ p) with
    | Ok a -> a
    | Error m -> failf "bad socket addr: %s" m
  in
  let addr = parse sock and raddr = parse rsock in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--wal-child"; "unix:" ^ sock; "--wal-data"; dir2 |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let stop_server () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid : int * Unix.process_status)
  in
  let acked = ref [] in
  (try
     Dl_client.with_retry ~attempts:40 ~backoff_ms:5.0 ~seed addr
     @@ fun sess ->
     (match
        Dl_client.retry sess (fun c -> Dl_client.rules c serve_program)
      with
     | Ok (Dl_client.Ok_ _) -> ()
     | Ok (Dl_client.Err (code, m)) -> failf "wal RULES: %s %s" code m
     | Ok _ -> failf "wal RULES: bad reply"
     | Error m -> failf "wal RULES: %s" m);
     let n = 16 + (rng_next st mod 48) in
     for i = 0 to n - 1 do
       let b = rng_next st mod 1000 in
       match
         Dl_client.retry sess (fun c ->
             Dl_client.assert_fact c "kv"
               [ string_of_int i; string_of_int b ])
       with
       | Ok (Dl_client.Ok_ _) ->
         acked := Printf.sprintf "%d\t%d" i b :: !acked
       | Ok (Dl_client.Err (code, m)) -> failf "wal ASSERT: %s %s" code m
       | Ok _ -> failf "wal ASSERT: bad reply"
       | Error m -> failf "wal ASSERT: %s" m
     done
   with e ->
     stop_server ();
     rm_rf dir2;
     raise e);
  (* every sent fact was acked; the kill lands between acks *)
  stop_server ();
  (try Sys.remove sock with Sys_error _ -> ());
  (match Dl_server.start (wal_child_cfg raddr dir2) with
  | Error m ->
    rm_rf dir2;
    failf "wal recovery start: %s" m
  | Ok srv ->
    (try
       (Dl_client.with_retry ~attempts:10 ~backoff_ms:5.0 raddr
        @@ fun sess ->
        match
          Dl_client.retry sess (fun c ->
              Dl_client.query c "out" [ "_"; "_" ])
        with
        | Ok (Dl_client.Data (_, rows)) ->
          let expected = List.sort compare !acked in
          let served = List.sort compare rows in
          if served <> expected then
            failf
              "strict recovery served %d tuples, acked %d (must be \
               byte-identical)"
              (List.length served) (List.length expected)
        | Ok (Dl_client.Err (code, m)) ->
          failf "wal recovery query: %s %s" code m
        | Ok _ -> failf "wal recovery query: bad reply"
        | Error m -> failf "wal recovery query: %s" m)
     with e ->
       Dl_server.stop srv;
       rm_rf dir2;
       raise e);
    Dl_server.stop srv);
  rm_rf dir2;
  (List.length !acked + List.length !appended, 0)

(* The tree scenarios (opt, pess, pool, tup) run one body over either
   instance.  Each run seeds a non-empty tree, then every worker does two
   things in an order that alternates with the worker index: per-key
   session inserts of its slice of the key stream, and a batch insert of
   its partition of the rest of the stream — sorted and cut at the tree's
   separators, exactly as the engine's parallel merge does. *)
module type TREE = sig
  include Btree_core.OPS

  val make : capacity:int -> t
  val gen : key_range:int -> (unit -> int) -> key
  val show : key -> string
end

module Int_tree = struct
  include T

  let make ~capacity = create ~capacity ()
  let gen ~key_range next = next () mod key_range
  let show = string_of_int
end

module Tuple_tree = struct
  include Btree_tuples

  let make ~capacity = create ~capacity ~arity:2 ~order:[| 0; 1 |] ()
  let gen ~key_range next = [| next () mod key_range; next () mod 16 |]
  let show k = Printf.sprintf "[%d,%d]" k.(0) k.(1)
end

module Tree_run (X : TREE) = struct
  let run ~domains ~nkeys ~scen ~seed r =
    let capacity = 4 + (4 * (r mod 3)) in
    let key_range = max 64 (nkeys / 2) in
    let st = ref (mix seed 0xABCD) in
    let keys = Array.init nkeys (fun _ -> X.gen ~key_range (fun () -> rng_next st)) in
    let tree = X.make ~capacity in
    let nseed = nkeys / 4 in
    let nsingle = (nkeys - nseed) / 2 in
    for i = 0 to nseed - 1 do
      ignore (X.insert tree keys.(i) : bool)
    done;
    let run = Array.sub keys (nseed + nsingle) (nkeys - nseed - nsingle) in
    Array.sort (X.compare tree) run;
    let bounds = X.partition tree ~parts:domains run in
    let part w =
      if w + 1 < Array.length bounds then (bounds.(w), bounds.(w + 1)) else (0, 0)
    in
    let failures = ref 0 in
    let failed = Array.make domains false in
    if scen = 1 then X.set_restart_budget 0;
    Fun.protect
      ~finally:(fun () -> X.set_restart_budget 16)
      (fun () ->
        Pool.with_pool domains (fun pool ->
            if scen = 2 then Pool.set_watchdog pool 1;
            try
              Pool.run pool (fun w ->
                  let s = X.session tree in
                  let singles () =
                    let lo, hi = slice ~workers:domains ~n:nsingle w in
                    for i = nseed + lo to nseed + hi - 1 do
                      ignore (X.s_insert s keys.(i) : bool)
                    done
                  in
                  let batch () =
                    let lo, hi = part w in
                    ignore (X.s_insert_batch ~pos:lo ~len:(hi - lo) s run : int)
                  in
                  if (r + w) land 1 = 0 then (singles (); batch ())
                  else (batch (); singles ()))
            with Pool.Pool_failure fs ->
              incr failures;
              List.iter
                (fun f ->
                  match f.Pool.f_exn with
                  | Chaos.Injected _ -> failed.(f.Pool.f_worker) <- true
                  | e ->
                    failf "worker %d died of a real error: %s" f.Pool.f_worker
                      (Printexc.to_string e))
                fs));
    Chaos.disable ();
    X.check_invariants tree;
    (* a failed worker was injected before its job body ran, so its slice
       and its partition are absent; everything else must be present *)
    let survivors = ref (Array.to_list (Array.sub keys 0 nseed)) in
    for w = domains - 1 downto 0 do
      if not failed.(w) then begin
        let lo, hi = slice ~workers:domains ~n:nsingle w in
        let plo, phi = part w in
        survivors :=
          Array.to_list (Array.sub keys (nseed + lo) (hi - lo))
          @ Array.to_list (Array.sub run plo (phi - plo))
          @ !survivors
      end
    done;
    let surv = Array.of_list !survivors in
    let expected = distinct_sorted (X.compare tree) surv in
    let card = X.cardinal tree in
    if card <> expected then
      failf "cardinal %d, expected %d distinct surviving keys" card expected;
    Array.iter
      (fun k -> if not (X.mem tree k) then failf "surviving key %s missing" (X.show k))
      surv;
    (Array.length surv, !failures)
end

module Int_run = Tree_run (Int_tree)
module Tuple_run = Tree_run (Tuple_tree)

(* Run one scenario; returns (inserted keys audited, pool failures seen). *)
let one_run ~domains ~nkeys ~points_override ~seed r =
  let scen = r mod n_scenarios in
  let points =
    match points_override with
    | Some p -> p
    | None ->
      if scen = 2 then pool_points
      else if scen = 4 then serve_points
      else if scen = 5 then wal_points
      else tree_points
  in
  (match Chaos.apply_spec (Printf.sprintf "seed=%d,points=%s" seed points) with
  | Ok () -> ()
  | Error m ->
    Printf.eprintf "bad failpoint spec: %s\n%s\n" m Chaos.spec_help;
    exit 2);
  Olock.Backoff.set_seed seed;
  if scen = 4 then serve_run ~domains ~nkeys ~seed r
  else if scen = 5 then wal_run ~nkeys ~seed r
  else if scen = 3 then Tuple_run.run ~domains ~nkeys ~scen ~seed r
  else Int_run.run ~domains ~nkeys ~scen ~seed r

(* --crash-demo: exercise the post-mortem path end to end.  Phase one
   runs a contended insert under forced validation failures so the rings
   hold real contention events; phase two arms [pool.job.raise:1] (every
   probe fires) and lets the resulting [Pool_failure] escape instead of
   containing it like the pool scenario does.  The handler drains every
   domain's ring into crashdump-<seed>.json and exits non-zero —
   tools/stress.sh --crashdump-selftest asserts the dump exists and that
   flightrec can parse it. *)
let crash_demo ~domains ~nkeys seed =
  let arm points =
    match
      Chaos.apply_spec (Printf.sprintf "seed=%d,points=%s" seed points)
    with
    | Ok () -> ()
    | Error m ->
      Printf.eprintf "bad failpoint spec: %s\n" m;
      exit 2
  in
  let st = ref (mix seed 0xC4A5) in
  let key_range = max 64 (nkeys / 2) in
  let keys = Array.init nkeys (fun _ -> rng_next st mod key_range) in
  let tree = T.create ~capacity:8 () in
  let insert_slices pool =
    Pool.run pool (fun w ->
        let lo, hi = slice ~workers:domains ~n:nkeys w in
        let s = T.session tree in
        for i = lo to hi - 1 do
          ignore (T.s_insert s keys.(i) : bool)
        done)
  in
  match
    Pool.with_pool domains (fun pool ->
        arm "olock.validate.force_fail:8+btree.descent.yield:6";
        insert_slices pool;
        arm "pool.job.raise:1";
        insert_slices pool)
  with
  | () ->
    Chaos.disable ();
    Printf.eprintf "crash demo: pool.job.raise:1 did not fire\n";
    exit 2
  | exception e ->
    Chaos.disable ();
    let path =
      Obs_cli.crash_dump
        ~extra:[ ("scenario", Telemetry.Json.String "crash-demo") ]
        e
    in
    Printf.printf "crash demo: induced %s\n" (Printexc.to_string e);
    Printf.printf "flight recorder: wrote %s (inspect with flightrec)\n" path;
    exit 1

let main base_seed domains runs nkeys points_override replay crash serve_metrics serve_interval wal_child wal_data =
  (match (wal_child, wal_data) with
  | Some addr_s, Some dir ->
    wal_child_main addr_s dir;
    exit 0
  | Some _, None | None, Some _ ->
    Printf.eprintf "--wal-child and --wal-data go together\n";
    exit 2
  | None, None -> ());
  let domains = max 1 domains in
  Telemetry.enable ();
  (* The recorder is always on under stress (the harness exists to shake
     out rare interleavings, and a failing run is worth a ring drain);
     chaos is armed per run, not from a flag.  Live observability for long
     drills: /health degrades while failpoints fire or watchdogs trip,
     /heat shows where the contention lands. *)
  let server =
    Obs_cli.setup ~chaos:None ~flight:true ~serve_metrics ~serve_interval ()
  in
  Fun.protect ~finally:(fun () -> Obs_cli.teardown server) @@ fun () ->
  if crash then crash_demo ~domains ~nkeys base_seed;
  let todo =
    match replay with
    | Some r when r >= 1 -> [ r - 1 ]
    | Some _ ->
      Printf.eprintf "--replay expects a 1-based run index\n";
      exit 2
    | None -> List.init runs Fun.id
  in
  let failures_total = ref 0 in
  let injected_jobs = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun r ->
      let seed = mix base_seed r in
      match one_run ~domains ~nkeys ~points_override ~seed r with
      | audited, pool_failures ->
        injected_jobs := !injected_jobs + pool_failures;
        Printf.printf "run %3d/%d scen=%-5s seed=0x%08x ok (audited=%d%s)\n%!"
          (r + 1) runs
          (scenario_name (r mod n_scenarios))
          seed audited
          (if pool_failures > 0 then
             Printf.sprintf ", contained pool failures=%d" pool_failures
           else "")
      | exception e ->
        Chaos.disable ();
        incr failures_total;
        Printf.printf "run %3d/%d scen=%-5s seed=0x%08x FAILED: %s\n" (r + 1)
          runs
          (scenario_name (r mod n_scenarios))
          seed (Printexc.to_string e);
        let dump =
          Obs_cli.crash_dump
            ~extra:
              [
                ( "scenario",
                  Telemetry.Json.String (scenario_name (r mod n_scenarios)) );
                ("run", Telemetry.Json.Int (r + 1));
              ]
            e
        in
        Printf.printf "flight recorder: wrote %s (inspect with flightrec)\n"
          dump;
        Printf.printf "replay: dune exec bin/stress.exe -- --seed %d \
                       --domains %d --keys %d --replay %d\n"
          base_seed domains nkeys (r + 1))
    todo;
  let snap = Telemetry.snapshot () in
  let g c = Telemetry.get snap c in
  Printf.printf
    "\n%d run(s) in %.1fs: %d failed; restarts=%d pessimistic_fallbacks=%d \
     watchdog_trips=%d contained_pool_failures=%d\n"
    (List.length todo)
    (Unix.gettimeofday () -. t0)
    !failures_total
    (g Telemetry.Counter.Btree_restarts)
    (g Telemetry.Counter.Btree_pessimistic_fallbacks)
    (g Telemetry.Counter.Pool_watchdog_trips)
    !injected_jobs;
  Telemetry.disable ();
  if !failures_total > 0 then exit 1

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Base seed; each run derives its own seed from it.")

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains per run.")

let runs_arg =
  Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N"
         ~doc:"Number of seeded runs.")

let keys_arg =
  Arg.(value & opt int 4000 & info [ "keys" ] ~docv:"N"
         ~doc:"Keys offered per run (shared key range forces contention).")

let points_arg =
  Arg.(value & opt (some string) None & info [ "points" ] ~docv:"POINTS"
         ~doc:"Override the per-scenario failpoint mix, e.g. \
               $(b,all:16) or $(b,olock.validate.force_fail:4).")

let replay_arg =
  Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"RUN"
         ~doc:"Replay a single 1-based run index (same derived seed).")

let crash_arg =
  Arg.(value & flag & info [ "crash-demo" ]
         ~doc:"Induce an uncontained $(b,Pool_failure) (pool.job.raise:1), \
               write a flight-recorder crash dump, and exit non-zero.")

let serve_metrics_arg =
  Arg.(value & opt (some string) None & info [ "serve-metrics" ] ~docv:"ADDR"
         ~doc:"Serve live telemetry over HTTP/1.0 while the drill runs \
               (/metrics /snapshot.json /heat /health /trace).  $(docv) is \
               $(b,unix:PATH), $(b,PORT), or $(b,HOST:PORT); port 0 picks \
               an ephemeral port.")

let serve_interval_arg =
  Arg.(value & opt int 1000 & info [ "serve-interval" ] ~docv:"MS"
         ~doc:"Sampling window length for --serve-metrics, in milliseconds \
               (min 10).")

(* internal: the wal scenario's crash-target server (see wal_child_main) *)
let wal_child_arg =
  Arg.(value & opt (some string) None
       & info [ "wal-child" ] ~docv:"ADDR" ~docs:Manpage.s_none
           ~doc:"Internal: run the wal drill's kill target.")

let wal_data_arg =
  Arg.(value & opt (some string) None
       & info [ "wal-data" ] ~docv:"DIR" ~docs:Manpage.s_none
           ~doc:"Internal: data dir for $(b,--wal-child).")

let cmd =
  let doc = "stress the tree, locks and pool under deterministic fault injection" in
  Cmd.v (Cmd.info "stress" ~doc)
    Term.(
      const main $ seed_arg $ domains_arg $ runs_arg $ keys_arg $ points_arg
      $ replay_arg $ crash_arg $ serve_metrics_arg $ serve_interval_arg
      $ wal_child_arg $ wal_data_arg)

let () = exit (Cmd.eval cmd)
