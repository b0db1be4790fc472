(* Unit and stress tests for the optimistic read-write lock. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_initial_state () =
  let l = Olock.create () in
  check "fresh lock is unlocked" false (Olock.is_write_locked l);
  check_int "fresh version is 0" 0 (Olock.version l)

let test_read_protocol () =
  let l = Olock.create () in
  let lease = Olock.start_read l in
  check "lease valid with no writer" true (Olock.valid l lease);
  check "end_read succeeds with no writer" true (Olock.end_read l lease)

let test_write_invalidates_lease () =
  let l = Olock.create () in
  let lease = Olock.start_read l in
  check "try_start_write succeeds" true (Olock.try_start_write l);
  check "lease invalid during write" false (Olock.valid l lease);
  Olock.end_write l;
  check "lease still invalid after write" false (Olock.valid l lease);
  let lease2 = Olock.start_read l in
  check "new lease valid" true (Olock.valid l lease2)

let test_abort_write_restores_lease () =
  let l = Olock.create () in
  let lease = Olock.start_read l in
  check "write starts" true (Olock.try_start_write l);
  Olock.abort_write l;
  (* abort means "no modification took place": old leases become valid again *)
  check "lease valid after aborted write" true (Olock.valid l lease)

let test_upgrade () =
  let l = Olock.create () in
  let lease = Olock.start_read l in
  check "upgrade succeeds on quiet lock" true (Olock.try_upgrade_to_write l lease);
  check "write locked after upgrade" true (Olock.is_write_locked l);
  Olock.end_write l;
  check "unlocked after end_write" false (Olock.is_write_locked l)

let test_upgrade_fails_after_write () =
  let l = Olock.create () in
  let lease = Olock.start_read l in
  Olock.start_write l;
  Olock.end_write l;
  check "upgrade fails after intervening write" false
    (Olock.try_upgrade_to_write l lease)

let test_writers_mutually_exclusive () =
  let l = Olock.create () in
  check "first writer" true (Olock.try_start_write l);
  check "second writer rejected" false (Olock.try_start_write l);
  Olock.end_write l;
  check "writer admitted after release" true (Olock.try_start_write l);
  Olock.end_write l

(* Stress: N domains increment a plain counter under start_write/end_write;
   no increment may be lost. *)
let test_writer_exclusion_stress () =
  let l = Olock.create () in
  let counter = ref 0 in
  let domains = 4 and per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Olock.start_write l;
      counter := !counter + 1;
      Olock.end_write l
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check_int "no lost updates" (domains * per_domain) !counter

(* Stress: seqlock-protected pair (x, y) with invariant x = y.  Readers must
   never validate an observation with x <> y. *)
let test_seqlock_consistency_stress () =
  let l = Olock.create () in
  let x = ref 0 and y = ref 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      let lease = Olock.start_read l in
      let a = !x in
      let b = !y in
      if Olock.end_read l lease && a <> b then Atomic.incr violations
    done
  in
  let writer () =
    for i = 1 to 50_000 do
      Olock.start_write l;
      x := i;
      (* widen the race window *)
      if i land 63 = 0 then Domain.cpu_relax ();
      y := i;
      Olock.end_write l
    done;
    Atomic.set stop true
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  let w = Domain.spawn writer in
  Domain.join w;
  List.iter Domain.join readers;
  check_int "validated reads always consistent" 0 (Atomic.get violations)

let test_spin_lock () =
  let l = Olock.Spin.create () in
  check "try_acquire on free lock" true (Olock.Spin.try_acquire l);
  check "second try_acquire fails" false (Olock.Spin.try_acquire l);
  Olock.Spin.release l;
  let r = Olock.Spin.with_lock l (fun () -> 42) in
  check_int "with_lock result" 42 r;
  check "released after with_lock" true (Olock.Spin.try_acquire l);
  Olock.Spin.release l

let test_spin_lock_stress () =
  let l = Olock.Spin.create () in
  let counter = ref 0 in
  let domains = 4 and per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Olock.Spin.with_lock l (fun () -> counter := !counter + 1)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check_int "no lost updates under spin lock" (domains * per_domain) !counter

let test_rwlock_basic () =
  let l = Olock.Rwlock.create () in
  check "reader admitted" true (Olock.Rwlock.try_read_lock l);
  check "second reader admitted" true (Olock.Rwlock.try_read_lock l);
  check "writer blocked by readers" false (Olock.Rwlock.try_write_lock l);
  Olock.Rwlock.read_unlock l;
  Olock.Rwlock.read_unlock l;
  check "writer admitted when free" true (Olock.Rwlock.try_write_lock l);
  check "reader blocked by writer" false (Olock.Rwlock.try_read_lock l);
  check "second writer blocked" false (Olock.Rwlock.try_write_lock l);
  Olock.Rwlock.write_unlock l;
  check "reader admitted after writer" true (Olock.Rwlock.try_read_lock l);
  Olock.Rwlock.read_unlock l

let test_rwlock_stress () =
  let l = Olock.Rwlock.create () in
  let x = ref 0 and y = ref 0 in
  let violations = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader () =
    while not (Atomic.get stop) do
      Olock.Rwlock.read_lock l;
      if !x <> !y then Atomic.incr violations;
      Olock.Rwlock.read_unlock l
    done
  in
  let writer () =
    for i = 1 to 20_000 do
      Olock.Rwlock.write_lock l;
      x := i;
      y := i;
      Olock.Rwlock.write_unlock l
    done;
    Atomic.set stop true
  in
  let rs = List.init 2 (fun _ -> Domain.spawn reader) in
  let w = Domain.spawn writer in
  Domain.join w;
  List.iter Domain.join rs;
  check_int "no torn reads under rwlock" 0 (Atomic.get violations)

let test_backoff () =
  let b = Olock.Backoff.create ~ceiling:8 () in
  (* just exercise the API: growth and reset must not diverge or raise *)
  for _ = 1 to 20 do
    Olock.Backoff.once b
  done;
  Olock.Backoff.reset b;
  Olock.Backoff.once b;
  check "backoff terminates" true true

(* Minor words [f] allocates over [n] calls, net of the measurement's own
   boxing of the counter. *)
let minor_words n f =
  let run g =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  run f -. run (fun () -> ())

(* Every level of an optimistic descent starts a read: on a free lock
   (even version) that must not allocate — no backoff is built until a
   writer is seen. *)
let test_start_read_allocates_nothing () =
  let l = Olock.create () in
  let words =
    minor_words 10_000 (fun () ->
        let lease = Olock.start_read l in
        ignore (Olock.end_read l lease : bool))
  in
  Alcotest.(check (float 0.)) "minor words of 10k read pairs" 0. words

let () =
  Alcotest.run "olock"
    [
      ( "protocol",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "read protocol" `Quick test_read_protocol;
          Alcotest.test_case "write invalidates lease" `Quick
            test_write_invalidates_lease;
          Alcotest.test_case "abort restores lease" `Quick
            test_abort_write_restores_lease;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "upgrade fails after write" `Quick
            test_upgrade_fails_after_write;
          Alcotest.test_case "writers mutually exclusive" `Quick
            test_writers_mutually_exclusive;
          Alcotest.test_case "free start_read allocates nothing" `Quick
            test_start_read_allocates_nothing;
        ] );
      ( "stress",
        [
          Alcotest.test_case "writer exclusion" `Quick test_writer_exclusion_stress;
          Alcotest.test_case "seqlock consistency" `Quick
            test_seqlock_consistency_stress;
        ] );
      ( "spin",
        [
          Alcotest.test_case "basic" `Quick test_spin_lock;
          Alcotest.test_case "stress" `Quick test_spin_lock_stress;
          Alcotest.test_case "backoff" `Quick test_backoff;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "basic" `Quick test_rwlock_basic;
          Alcotest.test_case "stress" `Quick test_rwlock_stress;
        ] );
    ]
