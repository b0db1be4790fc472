(* Fixture tests for the concurrency-discipline linter (lib/lint): one
   firing and one conforming sample per rule R1-R8 (including an
   interprocedural R3 pair where the blocking call hides behind local
   helpers), plus attribute scoping, path-classification, JSON
   round-trip, and baseline-ratchet checks.  The fixtures under
   lint_fixtures/ are parsed, never compiled. *)

(* cwd is test/ under `dune runtest` but the workspace root under
   `dune exec test/test_lint.exe`. *)
let fx name =
  let local = Filename.concat "lint_fixtures" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "lint_fixtures") name

let count rule findings =
  List.length (List.filter (fun f -> f.Lint.rule = rule) findings)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let dump findings =
  List.iter (fun f -> print_endline ("  " ^ Lint.finding_to_string f)) findings

let check_fixture ?server ~name ~hot ~atomic_ok () =
  let findings = Lint.check_file ~hot ~atomic_ok ?server (fx name) in
  Printf.printf "%s: %d finding(s)\n" name (List.length findings);
  dump findings;
  Alcotest.(check int)
    (name ^ ": parses")
    0
    (count Lint.rule_parse_error findings);
  findings

(* --- R1 atomic confinement ---------------------------------------- *)

let test_r1_fires () =
  let fs = check_fixture ~name:"r1_violation.ml" ~hot:false ~atomic_ok:false () in
  (* the record type, Atomic.make, Atomic.incr, and the unjustified
     allow *)
  Alcotest.(check int) "atomic-confinement findings" 4
    (count Lint.rule_atomic_confinement fs);
  Alcotest.(check bool) "unjustified allow is called out" true
    (List.exists
       (fun f ->
         f.Lint.rule = Lint.rule_atomic_confinement
         && f.Lint.line = 10)
       fs)

let test_r1_clean () =
  let fs = check_fixture ~name:"r1_conforming.ml" ~hot:false ~atomic_ok:false () in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* R1 against the flight-recorder shapes: a shared-atomic ring fires,
   the domain-local DLS ring (the design lib/telemetry/flight.ml uses)
   is clean. *)

let test_recorder_fires () =
  let fs =
    check_fixture ~name:"recorder_violation.ml" ~hot:false ~atomic_ok:false ()
  in
  Alcotest.(check int) "shared-atomic recorder fires R1" 3
    (count Lint.rule_atomic_confinement fs)

let test_recorder_clean () =
  let fs =
    check_fixture ~name:"recorder_conforming.ml" ~hot:false ~atomic_ok:false ()
  in
  Alcotest.(check int) "domain-local recorder is clean" 0 (List.length fs)

(* R1 against the telemetry-monitor shapes: publishing a sampled window
   through a shared atomic-guarded snapshot fires; the domain-confined
   ring + mutex-published cold-path registry (the design
   lib/telemetry/telemetry_server.ml uses) is clean. *)

let test_monitor_fires () =
  let fs =
    check_fixture ~name:"monitor_violation.ml" ~hot:false ~atomic_ok:false ()
  in
  (* the snapshot type's Atomic.t field, Atomic.make, Atomic.incr in the
     sampler, Atomic.get in the scrape handler *)
  Alcotest.(check int) "shared-snapshot monitor fires R1" 4
    (count Lint.rule_atomic_confinement fs)

let test_monitor_clean () =
  let fs =
    check_fixture ~name:"monitor_conforming.ml" ~hot:false ~atomic_ok:false ()
  in
  Alcotest.(check int) "domain-confined monitor is clean" 0 (List.length fs)

(* --- R2 lease discipline ------------------------------------------ *)

let test_r2_fires () =
  let fs = check_fixture ~name:"r2_violation.ml" ~hot:false ~atomic_ok:true () in
  (* peek: escape + unvalidated; unvalidated_branch; dropped *)
  Alcotest.(check int) "lease-discipline findings" 4
    (count Lint.rule_lease_discipline fs);
  Alcotest.(check bool) "escape is reported" true
    (List.exists
       (fun f ->
         f.Lint.rule = Lint.rule_lease_discipline
         && String.length f.Lint.message >= 5
         && String.sub f.Lint.message 0 5 = "lease")
       fs)

let test_r2_clean () =
  let fs = check_fixture ~name:"r2_conforming.ml" ~hot:false ~atomic_ok:true () in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- R3 no blocking under a write permit -------------------------- *)

let test_r3_fires () =
  let fs = check_fixture ~name:"r3_violation.ml" ~hot:false ~atomic_ok:true () in
  (* Pool.run, print_endline, Olock.start_read, Unix.gettimeofday *)
  Alcotest.(check int) "no-blocking findings" 4
    (count Lint.rule_no_blocking fs)

let test_r3_clean () =
  let fs = check_fixture ~name:"r3_conforming.ml" ~hot:false ~atomic_ok:true () in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- R4 hygiene ---------------------------------------------------- *)

let test_r4_fires () =
  let fs = check_fixture ~name:"r4_violation.ml" ~hot:true ~atomic_ok:true () in
  (* Obj.magic, bare compare, (=) on tuples, Stdlib.compare *)
  Alcotest.(check int) "hygiene findings" 4 (count Lint.rule_hygiene fs)

let test_r4_clean () =
  let fs = check_fixture ~name:"r4_conforming.ml" ~hot:true ~atomic_ok:true () in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* Obj.magic is banned even outside hot modules. *)
let test_obj_magic_everywhere () =
  let fs =
    Lint.check_source ~hot:false ~atomic_ok:true ~file:"inline.ml"
      "let f x = Obj.magic x\n"
  in
  Alcotest.(check int) "hygiene findings" 1 (count Lint.rule_hygiene fs)

(* --- attribute scoping -------------------------------------------- *)

let test_allow_is_scoped () =
  let src =
    "let x = (Atomic.make 0 [@lint.allow \"atomic-confinement: justified \
     for x only\"])\n\
     let y = Atomic.make 0\n"
  in
  let fs = Lint.check_source ~hot:false ~atomic_ok:false ~file:"inline.ml" src in
  Alcotest.(check int) "only the unsuppressed site fires" 1
    (count Lint.rule_atomic_confinement fs);
  Alcotest.(check bool) "and it is y's" true
    (List.for_all (fun f -> f.Lint.line = 2) fs)

let test_floating_allow () =
  let src =
    "[@@@lint.allow \"hygiene\"]\nlet f xs = List.sort compare xs\n"
  in
  let fs = Lint.check_source ~hot:true ~atomic_ok:true ~file:"inline.ml" src in
  Alcotest.(check int) "floating allow suppresses the structure" 0
    (List.length fs)

(* --- interprocedural R3: the blocking call hides behind helpers ---- *)

let test_r3_interproc_fires () =
  let fs =
    check_fixture ~name:"r3_interproc_violation.ml" ~hot:false ~atomic_ok:true
      ()
  in
  Alcotest.(check int) "helper-that-blocks fires under the permit" 1
    (count Lint.rule_no_blocking fs);
  Alcotest.(check bool) "the finding names the transitive chain" true
    (List.exists
       (fun f ->
         f.Lint.rule = Lint.rule_no_blocking
         && contains_sub f.Lint.message "settle_twice"
         && contains_sub f.Lint.message "may block")
       fs)

let test_r3_interproc_clean () =
  let fs =
    check_fixture ~name:"r3_interproc_conforming.ml" ~hot:false ~atomic_ok:true
      ()
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- R5 fd discipline --------------------------------------------- *)

let test_r5_fires () =
  let fs = check_fixture ~name:"r5_violation.ml" ~hot:false ~atomic_ok:true () in
  (* read_flag's None path, fresh_log's risky write_header, serve's
     risky greet *)
  Alcotest.(check int) "fd-discipline findings" 3
    (count Lint.rule_fd_discipline fs);
  Alcotest.(check bool) "the leak-on-raise path is reported" true
    (List.exists
       (fun f ->
         f.Lint.rule = Lint.rule_fd_discipline
         && contains_sub f.Lint.message "leaks if write_header raises")
       fs)

let test_r5_clean () =
  let fs =
    check_fixture ~name:"r5_conforming.ml" ~hot:false ~atomic_ok:true ()
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- R6 wal-before-ack (server files only) ------------------------- *)

let test_r6_fires () =
  let fs =
    check_fixture ~name:"r6_violation.ml" ~hot:false ~atomic_ok:true
      ~server:true ()
  in
  (* two s_batch conses, admit_ingest, install_program *)
  Alcotest.(check int) "wal-before-ack findings" 4
    (count Lint.rule_wal_before_ack fs)

let test_r6_clean () =
  let fs =
    check_fixture ~name:"r6_conforming.ml" ~hot:false ~atomic_ok:true
      ~server:true ()
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* the rule is scoped to server files: the same code is silent without
   the flag *)
let test_r6_scoped_to_server () =
  let fs = check_fixture ~name:"r6_violation.ml" ~hot:false ~atomic_ok:true () in
  Alcotest.(check int) "silent outside server files" 0
    (count Lint.rule_wal_before_ack fs)

(* --- R7 select-loop purity ----------------------------------------- *)

let test_r7_fires () =
  let fs = check_fixture ~name:"r7_violation.ml" ~hot:false ~atomic_ok:true () in
  (* handle (resolved, may block) and the inline Unix.accept *)
  Alcotest.(check int) "select-loop-purity findings" 2
    (count Lint.rule_select_purity fs)

let test_r7_clean () =
  let fs =
    check_fixture ~name:"r7_conforming.ml" ~hot:false ~atomic_ok:true ()
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- R8 stale suppressions ----------------------------------------- *)

let test_r8_fires () =
  let fs = check_fixture ~name:"r8_violation.ml" ~hot:false ~atomic_ok:true () in
  Alcotest.(check int) "stale-suppression findings" 2
    (count Lint.rule_stale_suppression fs);
  (* the typo'd allow does not suppress the finding it meant to cover *)
  Alcotest.(check int) "the mistargeted finding still fires" 1
    (count Lint.rule_hygiene fs)

let test_r8_clean () =
  let fs =
    check_fixture ~name:"r8_conforming.ml" ~hot:false ~atomic_ok:false ()
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- JSON round-trip and the baseline ratchet ---------------------- *)

let test_json_roundtrip () =
  let fs = Lint.check_file ~hot:false ~atomic_ok:true (fx "r5_violation.ml") in
  Alcotest.(check bool) "some findings to serialise" true (fs <> []);
  (match Lint.findings_of_json (Lint.findings_to_json fs) with
  | Ok fs' -> Alcotest.(check bool) "round-trips exactly" true (fs = fs')
  | Error m -> Alcotest.fail ("findings_of_json: " ^ m));
  match Lint.findings_of_json (Lint.findings_to_json []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty list did not round-trip"
  | Error m -> Alcotest.fail ("empty findings_of_json: " ^ m)

let mk file rule message line =
  { Lint.file; line; col = 0; rule; message }

let test_baseline_diff () =
  let fs =
    [
      mk "a.ml" Lint.rule_hygiene "m1" 1;
      mk "a.ml" Lint.rule_hygiene "m1" 9;
      mk "b.ml" Lint.rule_fd_discipline "m2" 3;
    ]
  in
  let base = Lint.baseline_of_findings fs in
  (* the baseline survives its JSON round-trip *)
  let base =
    match Lint.baseline_of_json (Lint.baseline_to_json base) with
    | Ok b -> b
    | Error m -> Alcotest.fail ("baseline_of_json: " ^ m)
  in
  (* identical findings: fully covered, nothing shrinkable *)
  let fresh, stale = Lint.diff_baseline base fs in
  Alcotest.(check int) "covered" 0 (List.length fresh);
  Alcotest.(check int) "nothing shrinkable" 0 (List.length stale);
  (* one of the two m1 sites fixed: no fresh finding, one shrinkable
     entry *)
  let fresh, stale = Lint.diff_baseline base (List.tl fs) in
  Alcotest.(check int) "still covered" 0 (List.length fresh);
  Alcotest.(check int) "one shrinkable entry" 1 (List.length stale);
  (* line moves do not count as new findings (identity is
     file/rule/message) *)
  let moved = [ mk "a.ml" Lint.rule_hygiene "m1" 100 ] in
  let fresh, _ = Lint.diff_baseline base (moved @ List.tl fs) in
  Alcotest.(check int) "a moved finding stays covered" 0 (List.length fresh);
  (* a brand-new finding escapes the ratchet *)
  let fresh, _ =
    Lint.diff_baseline base (mk "c.ml" Lint.rule_hygiene "m3" 2 :: fs)
  in
  Alcotest.(check int) "a new finding is fresh" 1 (List.length fresh);
  (* a third occurrence of a baselined message is over budget *)
  let fresh, _ =
    Lint.diff_baseline base (mk "a.ml" Lint.rule_hygiene "m1" 50 :: fs)
  in
  Alcotest.(check int) "over-budget occurrence is fresh" 1
    (List.length fresh)

(* --- path classification ------------------------------------------ *)

let test_classification () =
  Alcotest.(check bool) "btree.ml is hot" true
    (Lint.default_hot "lib/btree/btree.ml");
  Alcotest.(check bool) "symtab.ml is hot" true
    (Lint.default_hot "lib/datalog/symtab.ml");
  Alcotest.(check bool) "parser.ml is not hot" false
    (Lint.default_hot "lib/datalog/parser.ml");
  Alcotest.(check bool) "olock.ml may use atomics" true
    (Lint.default_atomic_whitelisted "lib/optlock/olock.ml");
  Alcotest.(check bool) "sync.ml may use atomics" true
    (Lint.default_atomic_whitelisted "lib/datalog/sync.ml");
  Alcotest.(check bool) "flight.ml may use atomics" true
    (Lint.default_atomic_whitelisted "lib/telemetry/flight.ml");
  Alcotest.(check bool) "eval.ml may not" false
    (Lint.default_atomic_whitelisted "lib/datalog/eval.ml")

let () =
  Alcotest.run "lint"
    [
      ( "r1-atomic-confinement",
        [
          Alcotest.test_case "fires" `Quick test_r1_fires;
          Alcotest.test_case "clean" `Quick test_r1_clean;
          Alcotest.test_case "shared-atomic recorder fires" `Quick
            test_recorder_fires;
          Alcotest.test_case "domain-local recorder clean" `Quick
            test_recorder_clean;
          Alcotest.test_case "shared-snapshot monitor fires" `Quick
            test_monitor_fires;
          Alcotest.test_case "domain-confined monitor clean" `Quick
            test_monitor_clean;
        ] );
      ( "r2-lease-discipline",
        [
          Alcotest.test_case "fires" `Quick test_r2_fires;
          Alcotest.test_case "clean" `Quick test_r2_clean;
        ] );
      ( "r3-no-blocking",
        [
          Alcotest.test_case "fires" `Quick test_r3_fires;
          Alcotest.test_case "clean" `Quick test_r3_clean;
          Alcotest.test_case "interprocedural fires" `Quick
            test_r3_interproc_fires;
          Alcotest.test_case "interprocedural clean" `Quick
            test_r3_interproc_clean;
        ] );
      ( "r4-hygiene",
        [
          Alcotest.test_case "fires" `Quick test_r4_fires;
          Alcotest.test_case "clean" `Quick test_r4_clean;
          Alcotest.test_case "obj-magic everywhere" `Quick
            test_obj_magic_everywhere;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "expression allow is scoped" `Quick
            test_allow_is_scoped;
          Alcotest.test_case "floating allow" `Quick test_floating_allow;
        ] );
      ( "r5-fd-discipline",
        [
          Alcotest.test_case "fires" `Quick test_r5_fires;
          Alcotest.test_case "clean" `Quick test_r5_clean;
        ] );
      ( "r6-wal-before-ack",
        [
          Alcotest.test_case "fires" `Quick test_r6_fires;
          Alcotest.test_case "clean" `Quick test_r6_clean;
          Alcotest.test_case "scoped to server files" `Quick
            test_r6_scoped_to_server;
        ] );
      ( "r7-select-purity",
        [
          Alcotest.test_case "fires" `Quick test_r7_fires;
          Alcotest.test_case "clean" `Quick test_r7_clean;
        ] );
      ( "r8-stale-suppression",
        [
          Alcotest.test_case "fires" `Quick test_r8_fires;
          Alcotest.test_case "clean" `Quick test_r8_clean;
        ] );
      ( "machine-output",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "baseline diff" `Quick test_baseline_diff;
        ] );
      ( "classification",
        [ Alcotest.test_case "paths" `Quick test_classification ] );
    ]
