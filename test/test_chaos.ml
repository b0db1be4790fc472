(* Tests for the robustness layer: the chaos failpoint registry itself,
   olock misuse detection and forced validation failures, the bounded-retry
   pessimistic fallback descent, pool fault containment, IO fault injection,
   and session/unhinted API equivalence.

   Every test that arms the registry disarms it in a [Fun.protect] finalizer
   so a failing assertion cannot leak chaos into later suites. *)

module T = Btree.Make (Key.Int)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* deterministic pseudo-random stream, same idiom as test_btree *)
let rng seed =
  let s = ref (Key.mix64 (seed + 1)) in
  fun bound ->
    s := Key.mix64 (!s + 0x2545F4914F6CDD1D);
    !s mod bound

let with_chaos f = Fun.protect ~finally:Chaos.disable f

(* telemetry delta around [f]: counter values accumulate globally across the
   test binary, so assertions compare before/after snapshots *)
let counter_delta c f =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let before = Telemetry.get (Telemetry.snapshot ()) c in
      f ();
      Telemetry.get (Telemetry.snapshot ()) c - before)

(* ---------------- registry ---------------- *)

let test_point_names_roundtrip () =
  List.iter
    (fun p ->
      match Chaos.Point.of_name (Chaos.Point.name p) with
      | Some p' -> check_bool (Chaos.Point.name p) true (p = p')
      | None -> Alcotest.failf "of_name lost %s" (Chaos.Point.name p))
    Chaos.Point.all;
  check_bool "unknown name" true (Chaos.Point.of_name "no.such.point" = None);
  check_int "count" (List.length Chaos.Point.all) Chaos.Point.count

let test_spec_parses () =
  with_chaos (fun () ->
      (match Chaos.apply_spec "seed=7,points=all:8" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "all:8 rejected: %s" m);
      check_bool "active" true (Chaos.active ());
      check_int "seed" 7 (Chaos.seed ());
      (match Chaos.apply_spec "points=pool.job.raise" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "default rate rejected: %s" m);
      match
        Chaos.apply_spec
          "points=olock.validate.force_fail:12+btree.descent.yield"
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "mixed rates rejected: %s" m)

let test_spec_rejects () =
  with_chaos (fun () ->
      let rejected spec =
        match Chaos.apply_spec spec with
        | Error _ -> ()
        | Ok () -> Alcotest.failf "accepted malformed spec %S" spec
      in
      rejected "";
      rejected "seed=7";                          (* arms no points *)
      rejected "points=bogus.point";
      rejected "points=olock.validate.force_fail:0"; (* rate < 1 *)
      rejected "points=olock.validate.force_fail:x";
      rejected "frob=1,points=all";
      rejected "seed=notanint,points=all";
      (* a malformed spec must not arm anything *)
      check_bool "nothing armed after errors" false (Chaos.active ()))

let test_fire_deterministic () =
  with_chaos (fun () ->
      let record seed =
        Chaos.configure ~seed [ (Chaos.Point.Olock_validate_force_fail, 3) ];
        List.init 200 (fun _ -> Chaos.fire Chaos.Point.Olock_validate_force_fail)
      in
      let a = record 11 and b = record 11 and c = record 12 in
      check_bool "same seed replays the same decisions" true (a = b);
      check_bool "different seed differs" true (a <> c);
      check_bool "rate 3 fires sometimes" true (List.mem true a);
      check_bool "rate 3 skips sometimes" true (List.mem false a))

let test_fired_counters () =
  with_chaos (fun () ->
      Chaos.configure ~seed:5 [ (Chaos.Point.Pool_job_raise, 1) ];
      for _ = 1 to 10 do
        ignore (Chaos.fire Chaos.Point.Pool_job_raise : bool)
      done;
      check_int "rate 1 fires every time" 10
        (Chaos.fired Chaos.Point.Pool_job_raise);
      check_int "unarmed point never fires" 0
        (Chaos.fired Chaos.Point.Io_read_truncate);
      check_int "total" 10 (Chaos.total_fired ());
      Chaos.disable ();
      check_bool "disabled" false (Chaos.active ());
      check_bool "fire after disable" false (Chaos.fire Chaos.Point.Pool_job_raise);
      (* counters stay readable after disable (for end-of-run reports) *)
      check_int "fired readable after disable" 10
        (Chaos.fired Chaos.Point.Pool_job_raise))

let test_inject_raises () =
  with_chaos (fun () ->
      Chaos.configure ~seed:1 [ (Chaos.Point.Pool_job_raise, 1) ];
      (match Chaos.inject Chaos.Point.Pool_job_raise with
      | () -> Alcotest.fail "armed inject did not raise"
      | exception Chaos.Injected p ->
        check_bool "payload names the point" true (p = "pool.job.raise"));
      (* yield_if must not raise, only stall *)
      Chaos.configure ~seed:1 [ (Chaos.Point.Btree_descent_yield, 1) ];
      Chaos.yield_if Chaos.Point.Btree_descent_yield;
      Chaos.disable ();
      Chaos.inject Chaos.Point.Pool_job_raise (* disabled: no-op *))

(* ---------------- olock: misuse + forced validation failure ------------ *)

let test_olock_misuse_detected () =
  let l = Olock.create () in
  let v0 = Olock.version l in
  (match Olock.end_write l with
  | () -> Alcotest.fail "end_write on a free lock accepted"
  | exception Olock.Protocol_violation _ -> ());
  (match Olock.abort_write l with
  | () -> Alcotest.fail "abort_write on a free lock accepted"
  | exception Olock.Protocol_violation _ -> ());
  (* the offending operation was rolled back: the lock is still usable *)
  check_int "version untouched" v0 (Olock.version l);
  Olock.start_write l;
  Olock.end_write l;
  check_bool "lock usable after violation" false (Olock.is_write_locked l);
  (* a released write permit cannot be released again *)
  Olock.start_write l;
  Olock.abort_write l;
  match Olock.end_write l with
  | () -> Alcotest.fail "double release accepted"
  | exception Olock.Protocol_violation _ -> ()

let test_olock_forced_validation_failure () =
  with_chaos (fun () ->
      let l = Olock.create () in
      let lease = Olock.start_read l in
      check_bool "valid without chaos" true (Olock.valid l lease);
      Chaos.configure ~seed:3 [ (Chaos.Point.Olock_validate_force_fail, 1) ];
      check_bool "forced validation failure" false (Olock.valid l lease);
      check_bool "forced end_read failure" false (Olock.end_read l lease);
      Chaos.disable ();
      check_bool "valid again once disarmed" true (Olock.valid l lease))

(* ---------------- bounded retries: pessimistic fallback ---------------- *)

let test_restart_budget_api () =
  check_int "default budget" 16 (T.restart_budget ());
  T.set_restart_budget 3;
  Fun.protect
    ~finally:(fun () -> T.set_restart_budget 16)
    (fun () ->
      check_int "budget set" 3 (T.restart_budget ());
      match T.set_restart_budget (-1) with
      | () -> Alcotest.fail "negative budget accepted"
      | exception Invalid_argument _ -> ());
  check_int "tuple tree default budget" 16 (Btree_tuples.restart_budget ())

let test_pessimistic_single_domain () =
  (* budget 0: every insert takes the write-locked fallback descent; the
     result must be indistinguishable from the optimistic path *)
  let fallbacks =
    counter_delta Telemetry.Counter.Btree_pessimistic_fallbacks (fun () ->
        T.set_restart_budget 0;
        Fun.protect
          ~finally:(fun () -> T.set_restart_budget 16)
          (fun () ->
            let r = rng 91 in
            let t = T.create ~capacity:4 () in
            let module S = Set.Make (Int) in
            let model = ref S.empty in
            for _ = 1 to 2000 do
              let k = r 500 in
              let fresh = T.insert t k in
              check_bool "fresh agrees with model" (not (S.mem k !model)) fresh;
              model := S.add k !model
            done;
            (* the batch write path has its own pessimistic twin *)
            let run = Array.init 300 (fun _ -> r 1000) in
            Array.sort compare run;
            ignore (T.insert_batch t run : int);
            Array.iter (fun k -> model := S.add k !model) run;
            T.check_invariants t;
            check_int "cardinal" (S.cardinal !model) (T.cardinal t);
            S.iter
              (fun k -> if not (T.mem t k) then Alcotest.failf "lost %d" k)
              !model))
  in
  check_bool "fallback counter advanced" true (fallbacks > 0)

let test_pessimistic_multi_domain () =
  T.set_restart_budget 0;
  Fun.protect
    ~finally:(fun () -> T.set_restart_budget 16)
    (fun () ->
      let domains = 4 and per = 1500 in
      let r = rng 17 in
      let keys =
        Array.init (domains * per) (fun _ -> r 800)
      in
      let t = T.create ~capacity:8 () in
      Pool.with_pool domains (fun pool ->
          Pool.run pool (fun w ->
              let s = T.session t in
              for i = w * per to ((w + 1) * per) - 1 do
                ignore (T.s_insert s keys.(i) : bool)
              done));
      T.check_invariants t;
      let module S = Set.Make (Int) in
      let expected = Array.fold_left (fun s k -> S.add k s) S.empty keys in
      check_int "multi-domain cardinal" (S.cardinal expected) (T.cardinal t))

let test_pessimistic_tuples () =
  Btree_tuples.set_restart_budget 0;
  Fun.protect
    ~finally:(fun () -> Btree_tuples.set_restart_budget 16)
    (fun () ->
      let r = rng 29 in
      let t = Btree_tuples.create ~capacity:4 ~arity:2 ~order:[| 0; 1 |] () in
      let module S = Set.Make (struct
        type t = int * int

        let compare = compare
      end) in
      let model = ref S.empty in
      for _ = 1 to 1500 do
        let a = r 200 and b = r 8 in
        ignore (Btree_tuples.insert t [| a; b |] : bool);
        model := S.add (a, b) !model
      done;
      let run = Array.init 200 (fun _ -> [| r 400; r 8 |]) in
      Array.sort (Btree_tuples.compare t) run;
      ignore (Btree_tuples.insert_batch t run : int);
      Array.iter (fun tp -> model := S.add (tp.(0), tp.(1)) !model) run;
      Btree_tuples.check_invariants t;
      check_int "tuple cardinal" (S.cardinal !model) (Btree_tuples.cardinal t);
      S.iter
        (fun (a, b) ->
          if not (Btree_tuples.mem t [| a; b |]) then
            Alcotest.failf "lost tuple (%d,%d)" a b)
        !model)

let test_fallback_under_forced_failures () =
  (* every optimistic validation forced to fail: without the bounded-retry
     fallback this loop would livelock; with it, it must terminate with a
     correct tree *)
  with_chaos (fun () ->
      Chaos.configure ~seed:23 [ (Chaos.Point.Olock_validate_force_fail, 1) ];
      let fallbacks =
        counter_delta Telemetry.Counter.Btree_pessimistic_fallbacks (fun () ->
            let t = T.create ~capacity:4 () in
            for k = 0 to 499 do
              ignore (T.insert t k : bool)
            done;
            Chaos.disable ();
            T.check_invariants t;
            check_int "all present" 500 (T.cardinal t))
      in
      check_bool "descents fell back" true (fallbacks > 0))

(* ---------------- pool fault containment ---------------- *)

let test_pool_injected_faults_contained () =
  with_chaos (fun () ->
      Chaos.configure ~seed:1 [ (Chaos.Point.Pool_job_raise, 1) ];
      Pool.with_pool 4 (fun p ->
          (match Pool.run p (fun _ -> ()) with
          | () -> Alcotest.fail "injected faults did not surface"
          | exception Pool.Pool_failure fs ->
            check_int "every worker captured" 4 (List.length fs);
            check_bool "sorted by worker" true
              (List.map (fun f -> f.Pool.f_worker) fs = [ 0; 1; 2; 3 ]);
            List.iter
              (fun f ->
                (match f.Pool.f_exn with
                | Chaos.Injected _ -> ()
                | e ->
                  Alcotest.failf "unexpected exception: %s"
                    (Printexc.to_string e));
                check_bool "backtrace captured as a string" true
                  (String.length f.Pool.f_backtrace >= 0))
              fs);
          (* no worker domain died: the same pool runs the next job *)
          Chaos.disable ();
          let hits = Atomic.make 0 in
          Pool.run p (fun _ -> Atomic.incr hits);
          check_int "pool alive after contained faults" 4 (Atomic.get hits)))

let test_pool_watchdog_trips () =
  let trips =
    counter_delta Telemetry.Counter.Pool_watchdog_trips (fun () ->
        Pool.with_pool 2 (fun p ->
            (match Pool.set_watchdog p (-1) with
            | () -> Alcotest.fail "negative deadline accepted"
            | exception Invalid_argument _ -> ());
            (* 1ns deadline: any real job overruns it; the watchdog flags,
               it never kills *)
            Pool.set_watchdog p 1;
            let hits = Atomic.make 0 in
            Pool.run p (fun _ -> Atomic.incr hits);
            check_int "job still completed" 2 (Atomic.get hits);
            (* disarmed: no further trips *)
            Pool.set_watchdog p 0;
            Pool.run p (fun _ -> ())))
  in
  check_int "exactly one trip" 1 trips

(* ---------------- IO fault injection ---------------- *)

let tc_src =
  {|
  .decl edge(x:number, y:number)
  .decl path(x:number, y:number)
  .input edge
  .output path
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
  |}

let with_facts_file content f =
  let path = Filename.temp_file "chaosio" ".facts" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let test_io_truncate_strict () =
  with_chaos (fun () ->
      with_facts_file "1\t2\n3\t4\n" (fun path ->
          let e = Engine.create (Parser.parse_string tc_src) in
          Chaos.configure ~seed:9 [ (Chaos.Point.Io_read_truncate, 1) ];
          match Dl_io.load_facts_file e ~relation:"edge" path with
          | _ -> Alcotest.fail "accepted truncated lines"
          | exception
              Dl_io.Parse_error { file = Some f; line = 1; relation = "edge"; _ }
            -> check_bool "file recorded" true (Filename.check_suffix f ".facts")))

let test_io_truncate_lenient () =
  with_chaos (fun () ->
      with_facts_file "1\t2\n3\t4\n5\t6\n" (fun path ->
          let loaded = ref (-1) in
          let skipped =
            counter_delta Telemetry.Counter.Io_malformed_lines (fun () ->
                let e = Engine.create (Parser.parse_string tc_src) in
                Chaos.configure ~seed:9 [ (Chaos.Point.Io_read_truncate, 1) ];
                loaded := Dl_io.load_facts_file ~lenient:true e ~relation:"edge" path;
                Chaos.disable ())
          in
          (* every line was cut to "N", one field instead of two: all three
             are skipped-and-counted, none loaded *)
          check_int "nothing loaded" 0 !loaded;
          check_int "every malformed line counted" 3 skipped))

(* ---------------- session / unhinted equivalence ---------------- *)

let test_session_matches_unhinted () =
  (* hints are a pure accelerator: the session API (hinted) and the raw
     unhinted API must agree operation by operation *)
  let r = rng 57 in
  let keys = Array.init 1000 (fun _ -> r 400) in
  let t_plain = T.create ~capacity:8 () in
  let t_sess = T.create ~capacity:8 () in
  let s = T.session t_sess in
  Array.iter
    (fun k ->
      let a = T.insert t_plain k and b = T.s_insert s k in
      if a <> b then Alcotest.failf "insert disagrees on %d" k)
    keys;
  T.check_invariants t_plain;
  check_int "same cardinal" (T.cardinal t_sess) (T.cardinal t_plain);
  Array.iter
    (fun k ->
      if T.mem t_plain k <> T.s_mem s k then
        Alcotest.failf "mem disagrees on %d" k;
      if T.lower_bound t_plain k <> T.s_lower_bound s k then
        Alcotest.failf "lower_bound disagrees on %d" k)
    keys;
  let scanned = ref 0 in
  T.s_iter_from (fun _ -> incr scanned; !scanned < 50) s 0;
  check_int "session scan" 50 !scanned;
  (* batch insert through the session *)
  let run = Array.init 100 (fun i -> 1000 + i) in
  check_int "session batch" 100 (T.s_insert_batch s run);
  check_int "plain batch" 100 (T.insert_batch t_plain run)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chaos"
    [
      ( "registry",
        [
          tc "point names roundtrip" `Quick test_point_names_roundtrip;
          tc "spec parses" `Quick test_spec_parses;
          tc "spec rejects malformed" `Quick test_spec_rejects;
          tc "deterministic firing" `Quick test_fire_deterministic;
          tc "fired counters" `Quick test_fired_counters;
          tc "inject raises" `Quick test_inject_raises;
        ] );
      ( "olock",
        [
          tc "misuse detected" `Quick test_olock_misuse_detected;
          tc "forced validation failure" `Quick test_olock_forced_validation_failure;
        ] );
      ( "fallback",
        [
          tc "restart budget api" `Quick test_restart_budget_api;
          tc "pessimistic single domain" `Quick test_pessimistic_single_domain;
          tc "pessimistic multi domain" `Quick test_pessimistic_multi_domain;
          tc "pessimistic tuple tree" `Quick test_pessimistic_tuples;
          tc "fallback under forced failures" `Quick
            test_fallback_under_forced_failures;
        ] );
      ( "pool",
        [
          tc "injected faults contained" `Quick test_pool_injected_faults_contained;
          tc "watchdog trips" `Quick test_pool_watchdog_trips;
        ] );
      ( "io",
        [
          tc "truncate strict" `Quick test_io_truncate_strict;
          tc "truncate lenient" `Quick test_io_truncate_lenient;
        ] );
      ( "sessions",
        [ tc "session matches unhinted" `Quick test_session_matches_unhinted ] );
    ]
