(* Query-server tests: protocol totality (parse_request/parse_fact must
   survive arbitrary bytes), render/parse round-trips, the closed error-code
   set, hostile input over a live socket (structured ERR, never a dropped
   connection), and — the load-bearing one — four client domains mixing
   ASSERT and QUERY against one resident server, audited for exact
   cardinality and zero phase violations. *)

module P = Dl_proto

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- pure protocol ------------------------------------------------- *)

let test_parse_verbs () =
  (match P.parse_request "HELLO dlserve/1" with
  | Ok (P.Hello v) -> check Alcotest.string "hello token" P.version v
  | _ -> Alcotest.fail "HELLO did not parse");
  (match P.parse_request "rules 3" with
  | Ok (P.Rules 3) -> ()
  | _ -> Alcotest.fail "lowercase RULES did not parse");
  (match P.parse_request "Load\tedge  2" with
  | Ok (P.Load ("edge", 2)) -> ()
  | _ -> Alcotest.fail "LOAD with mixed whitespace did not parse");
  (match P.parse_request "ASSERT kv 1 -2" with
  | Ok (P.Assert_ ("kv", [| P.V_int 1; P.V_int (-2) |])) -> ()
  | _ -> Alcotest.fail "ASSERT fields did not parse");
  (match P.parse_request "assert kv(1, foo)" with
  | Ok (P.Assert_ ("kv", [| P.V_int 1; P.V_sym "foo" |])) -> ()
  | _ -> Alcotest.fail "ASSERT atom sugar did not parse");
  (match P.parse_request "QUERY out(_, 7)" with
  | Ok (P.Query ("out", [| P.P_any; P.P_val (P.V_int 7) |])) -> ()
  | _ -> Alcotest.fail "QUERY atom sugar / wildcard did not parse");
  (match P.parse_request "query out _ sym" with
  | Ok (P.Query ("out", [| P.P_any; P.P_val (P.V_sym "sym") |])) -> ()
  | _ -> Alcotest.fail "QUERY flat form did not parse");
  List.iter
    (fun (line, want) ->
      match (P.parse_request line, want) with
      | Ok P.Stats, `Stats | Ok P.Ping, `Ping | Ok P.Shutdown, `Shutdown -> ()
      | _ -> Alcotest.failf "%S did not parse to its verb" line)
    [ ("STATS", `Stats); ("pInG", `Ping); ("shutdown", `Shutdown) ]

let test_parse_errors () =
  let bad line =
    match P.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S parsed but should not" line
  in
  bad "";
  bad "   ";
  bad "FROBNICATE 1 2";
  bad "RULES";
  bad "RULES many";
  bad "RULES -1";
  bad (Printf.sprintf "RULES %d" (P.max_batch + 1));
  bad "LOAD edge";
  bad "ASSERT";
  bad "QUERY";
  (* unterminated atom syntax *)
  bad "ASSERT kv(1, 2";
  (* an atom-form field with interior whitespace cannot round-trip
     through whitespace-tokenised fact lines (the WAL's on-disk form) *)
  bad "ASSERT kv(1, b c)";
  bad "QUERY kv(a b, _)";
  (match P.parse_fact "1 2 xyz" with
  | Ok [| P.V_int 1; P.V_int 2; P.V_sym "xyz" |] -> ()
  | _ -> Alcotest.fail "fact line did not parse");
  (match P.parse_fact "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty fact line parsed")

(* A fact field is an integer exactly when [int_of_string] takes it,
   whatever shortcut the parser uses to tell symbols apart: every token
   parses as the plain definition below says, alone on a fact line and
   all on one line, and through ASSERT. *)
let test_value_of_token_equivalence () =
  let reference t =
    match int_of_string_opt t with Some i -> P.V_int i | None -> P.V_sym t
  in
  let corpus =
    [
      "0x1F"; "+3"; "-0b11"; "1_000"; "0u12"; "007"; "_"; "-"; "+"; "--1";
      "1e3"; "9223372036854775808"; "-9223372036854775808"; "42"; "-7"; "0";
      "x"; "abc"; "_x"; "x1"; "0abc"; "-abc"; "+x"; "1-"; "0o17"; "-0x"; "\xff";
      "key_000017_3f2a9c04b1d8e6f7a0c3b5d2e9f1a4c7"; "keyA_000001_z";
    ]
  in
  let value = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (P.value_to_string v)) ( = ) in
  List.iter
    (fun tok ->
      match P.parse_fact tok with
      | Ok [| v |] -> check value tok (reference tok) v
      | _ -> Alcotest.failf "%S did not parse as one field" tok)
    corpus;
  (match P.parse_fact (String.concat " " corpus) with
  | Ok vs ->
    check (Alcotest.list value) "one line" (List.map reference corpus)
      (Array.to_list vs)
  | Error m -> Alcotest.failf "corpus line: %s" m);
  (match P.parse_request ("ASSERT kv " ^ String.concat " " corpus) with
  | Ok (P.Assert_ ("kv", vs)) ->
    check (Alcotest.list value) "assert" (List.map reference corpus)
      (Array.to_list vs)
  | _ -> Alcotest.fail "ASSERT over the corpus did not parse");
  (* the tokenizer never yields an empty field: an empty line is no fact *)
  match P.parse_fact "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty fact line parsed"

(* Deterministic byte-string fuzz: totality means no exception, ever. *)
let test_parse_total_fuzz () =
  let st = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    x land max_int
  in
  for _ = 1 to 5_000 do
    let len = next () mod 120 in
    let s =
      String.init len (fun _ ->
          (* full byte range, including NUL and control characters *)
          Char.chr (next () mod 256))
    in
    (match P.parse_request s with Ok _ | Error _ -> ());
    match P.parse_fact s with Ok _ | Error _ -> ()
  done;
  (* structured garbage that nearly parses *)
  List.iter
    (fun s -> match P.parse_request s with Ok _ | Error _ -> ())
    [
      "ASSERT kv(((((";
      "QUERY x(,,,,)";
      "LOAD " ^ String.make 100 'x' ^ " 99999999999999999999";
      "ASSERT kv " ^ String.concat " " (List.init 200 string_of_int);
      String.make 300 '(';
    ]

let test_response_roundtrip () =
  let render r =
    let b = Buffer.create 64 in
    P.render b r;
    Buffer.contents b
  in
  (match String.split_on_char '\n' (render (P.R_ok "hi there")) with
  | line :: _ -> (
    match P.parse_response_line line with
    | `Ok "hi there" -> ()
    | _ -> Alcotest.fail "OK did not round-trip")
  | [] -> Alcotest.fail "render produced nothing");
  (match
     String.split_on_char '\n' (render (P.R_data ("2 rows", [ "a\tb"; "c\td" ])))
   with
  | status :: rest -> (
    (match P.parse_response_line status with
    | `Data (2, "2 rows") -> ()
    | _ -> Alcotest.fail "DATA status did not round-trip");
    (* payload lines then END, then the trailing-newline split remainder *)
    match rest with
    | [ "a\tb"; "c\td"; "END"; "" ] -> ()
    | _ -> Alcotest.fail "DATA payload framing wrong")
  | [] -> Alcotest.fail "render produced nothing");
  (match
     String.split_on_char '\n' (render (P.R_err (P.E_busy, "try later")))
   with
  | line :: _ -> (
    match P.parse_response_line line with
    | `Err ("busy", "try later") -> ()
    | _ -> Alcotest.fail "ERR did not round-trip")
  | [] -> Alcotest.fail "render produced nothing");
  match P.parse_response_line "?? mystery line" with
  | `Err ("garbled", _) -> ()
  | _ -> Alcotest.fail "garbled line not classified as garbled"

let test_err_codes () =
  let all =
    [
      P.E_parse; P.E_proto; P.E_program; P.E_no_program; P.E_relation;
      P.E_arity; P.E_busy; P.E_shutdown; P.E_internal;
    ]
  in
  let names = List.map P.err_name all in
  (* names are distinct and round-trip through err_of_name *)
  checki "distinct names" (List.length all)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun c ->
      match P.err_of_name (P.err_name c) with
      | Some c' -> checkb "code round-trips" true (c = c')
      | None -> Alcotest.failf "err_of_name %S = None" (P.err_name c))
    all;
  checkb "unknown name rejected" true (P.err_of_name "no-such-code" = None)

(* --- live server ---------------------------------------------------- *)

let fresh_addr =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "test-dlserve-%d-%d.sock" (Unix.getpid ()) !n)
    in
    (try Sys.remove path with Sys_error _ -> ());
    match Telemetry_server.parse_addr ("unix:" ^ path) with
    | Ok a -> a
    | Error m -> Alcotest.failf "bad addr: %s" m

let with_server ?(workers = 2) ?(flip_pending = 32) ?(flip_interval_ms = 5) ()
    k =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers;
      flip_pending;
      flip_interval_ms;
      check_phases = true;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) (fun () -> k addr)

let with_client addr k =
  match Dl_client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Dl_client.close c) (fun () -> k c)

let program =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl out(a:number, b:number)\n.output out\n\
   out(x, y) :- kv(x, y).\n"

let install c =
  match Dl_client.rules c program with
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "RULES: %s %s" code m
  | Ok _ | Error _ -> Alcotest.failf "RULES: bad reply"

(* Every hostile line gets a structured ERR on the expected code and the
   connection stays usable: PING must still answer afterwards. *)
let test_hostile_lines () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  let expect_err line code =
    (match Dl_client.request c line with
    | Ok (Dl_client.Err (got, _)) ->
      check Alcotest.string (Printf.sprintf "code for %S" line) code got
    | Ok _ -> Alcotest.failf "%S did not produce ERR" line
    | Error m -> Alcotest.failf "%S killed the connection: %s" line m);
    match Dl_client.ping c with
    | Ok (Dl_client.Ok_ _) -> ()
    | _ -> Alcotest.failf "connection dead after %S" line
  in
  expect_err "FROBNICATE 1 2" "parse";
  expect_err "" "parse";
  expect_err "\000\001\255garbage\127" "parse";
  expect_err "QUERY out(_, _)" "no-program";
  expect_err "ASSERT kv 1 2" "no-program";
  expect_err (Printf.sprintf "RULES %d" (P.max_batch + 1)) "parse";
  install c;
  expect_err "ASSERT nosuch 1 2" "relation";
  expect_err "QUERY nosuch(_)" "relation";
  expect_err "ASSERT kv 1" "arity";
  expect_err "QUERY kv(_, _, _)" "arity";
  (* a broken program must not dislodge the installed one *)
  (match Dl_client.rules c ":- broken(" with
  | Ok (Dl_client.Err ("program", _)) -> ()
  | _ -> Alcotest.fail "broken program not rejected as program error");
  match Dl_client.assert_fact c "kv" [ "1"; "2" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "previous program lost after rejected RULES"

(* An oversized request line gets a structured ERR proto and then — since
   resynchronising inside an unbounded stream is not attempted — a
   deliberate close; the server itself must stay up. *)
let test_oversized_line () =
  with_server () @@ fun addr ->
  (with_client addr @@ fun c ->
   match Dl_client.request c ("PING " ^ String.make (P.max_line + 64) 'x') with
   | Ok (Dl_client.Err ("proto", _)) -> ()
   | Ok _ -> Alcotest.fail "oversized line did not produce ERR proto"
   | Error m -> Alcotest.failf "no structured reply before close: %s" m);
  (* fresh connections still served *)
  with_client addr @@ fun c ->
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "server dead after oversized line"

(* Read-your-writes at batch granularity: a query after an ASSERT on the
   same connection must see the fact (the query forces a flip). *)
let test_read_your_writes () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  (match Dl_client.assert_fact c "kv" [ "11"; "22" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "assert failed");
  (match Dl_client.query c "out" [ "11"; "_" ] with
  | Ok (Dl_client.Data (_, [ "11\t22" ])) -> ()
  | Ok (Dl_client.Data (_, rows)) ->
    Alcotest.failf "expected one row, got %d" (List.length rows)
  | _ -> Alcotest.fail "query failed");
  (* LOAD batch, then the duplicate is deduplicated *)
  (match Dl_client.load c "kv" [ "11 22"; "33 44"; "55 66" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "load failed");
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) -> checki "cardinality" 3 (List.length rows)
  | _ -> Alcotest.fail "audit query failed"

let stats_field c name =
  match Dl_client.stats c with
  | Ok (Dl_client.Data (_, lines)) ->
    List.find_map
      (fun l ->
        match String.index_opt l '=' with
        | Some eq when String.sub l 0 eq = name ->
          Some (String.sub l (eq + 1) (String.length l - eq - 1))
        | _ -> None)
      lines
  | _ -> Alcotest.fail "STATS: bad reply"

(* Raw-socket access, for tests that must pipeline requests without
   waiting for replies (Dl_client is strictly request/reply). *)
let with_raw_conn addr k =
  let path =
    match addr with
    | Telemetry_server.Unix_sock p -> p
    | _ -> Alcotest.fail "expected a unix-socket address"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let (_ : string) = input_line ic (* greeting *) in
      let send s =
        let n = String.length s in
        if Unix.write_substring fd s 0 n <> n then
          Alcotest.fail "short raw write"
      in
      k send ic)

(* A RULES install does not flush queued queries; pipelining QUERY then a
   program that drops/re-declares the queried relations — all in one
   write, so both parse before the flip runs — must yield structured
   errors on the queries, never kill the server domain. *)
let test_rules_swap_queued_query () =
  with_server () @@ fun addr ->
  (with_client addr @@ fun c -> install c);
  (with_raw_conn addr @@ fun send ic ->
   send
     "QUERY out _ _\nQUERY kv _ _\nRULES 2\n.decl kv(a:number)\n.input kv\n";
   (* the RULES ack is sent at install time, before the queries run *)
   let rules_reply = input_line ic in
   checkb "RULES ack" true (String.length rules_reply > 2
                           && String.sub rules_reply 0 2 = "OK");
   let expect_code want =
     match P.parse_response_line (input_line ic) with
     | `Err (code, _) -> check Alcotest.string "queued query code" want code
     | _ -> Alcotest.failf "queued query did not come back as ERR %s" want
   in
   expect_code "relation" (* out: dropped by the new program *);
   expect_code "arity" (* kv: re-declared at arity 1, query has 2 pats *));
  (* the load-bearing assertion: the server domain survived *)
  with_client addr @@ fun c ->
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "server dead after program swap under queued queries"

(* LOAD must hold its announced rows against max_pending from the header
   on, so ingest interleaved mid-batch cannot overshoot the cap; the hold
   converts to pending at completion and admission reopens after a flip. *)
let test_load_reserves_pending () =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers = 2;
      flip_pending = 1000;
      flip_interval_ms = 1000;
      max_pending = 10;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    (with_client addr @@ fun c -> install c);
    with_raw_conn addr @@ fun send ic ->
    send "LOAD kv 10\n1 1\n2 2\n3 3\n4 4\n5 5\n" (* 5 of 10 lines *);
    with_client addr @@ fun c2 ->
    let rec await_reservation tries =
      if tries = 0 then Alcotest.fail "reservation never visible in STATS";
      match stats_field c2 "reserved_ingest" with
      | Some "10" -> ()
      | _ ->
        Unix.sleepf 0.01;
        await_reservation (tries - 1)
    in
    await_reservation 500;
    (* pending(0) + reserved(10) + 1 > 10: rejected, not admitted *)
    (match Dl_client.assert_fact c2 "kv" [ "77"; "88" ] with
    | Ok (Dl_client.Err ("busy", _)) -> ()
    | _ -> Alcotest.fail "mid-batch assert admitted past the cap");
    send "6 6\n7 7\n8 8\n9 9\n10 10\n";
    (match P.parse_response_line (input_line ic) with
    | `Ok _ -> ()
    | _ -> Alcotest.fail "completed LOAD not acked");
    (* a query forces a flip; pending drains and admission reopens *)
    (match Dl_client.query c2 "out" [ "_"; "_" ] with
    | Ok (Dl_client.Data (_, rows)) -> checki "loaded rows" 10 (List.length rows)
    | _ -> Alcotest.fail "post-load query failed");
    match Dl_client.assert_fact c2 "kv" [ "77"; "88" ] with
    | Ok (Dl_client.Ok_ _) -> ()
    | _ -> Alcotest.fail "admission did not reopen after the flip"

let await_stat c name want =
  let rec go tries =
    if stats_field c name <> Some want then
      if tries = 0 then Alcotest.failf "STATS %s never reached %s" name want
      else begin
        Unix.sleepf 0.01;
        go (tries - 1)
      end
  in
  go 500

let with_capped_server ?(max_clients = 64) k =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers = 2;
      flip_pending = 1000;
      flip_interval_ms = 1000;
      max_pending = 10;
      max_clients;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) (fun () -> k addr)

(* A session that drops in the middle of a LOAD gives its admission hold
   back: the reservation returns to 0 and a LOAD of the full cap is then
   admitted. *)
let test_dropped_load_releases () =
  with_capped_server @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  (with_raw_conn addr @@ fun send _ ->
   send "LOAD kv 10\n1 1\n2 2\n3 3\n4 4\n5 5\n";
   await_stat c "reserved_ingest" "10");
  await_stat c "reserved_ingest" "0";
  let rows = List.init 10 (fun i -> Printf.sprintf "%d %d" i i) in
  match Dl_client.load c "kv" rows with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "LOAD at the cap refused after the dropped session"

(* Past max_clients a connect reads one refusal line instead of the
   greeting. *)
let test_client_cap () =
  with_capped_server ~max_clients:1 @@ fun addr ->
  with_client addr @@ fun _ ->
  let path =
    match addr with
    | Telemetry_server.Unix_sock p -> p
    | _ -> Alcotest.fail "expected a unix-socket address"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  check Alcotest.string "refusal" "ERR busy too many clients"
    (input_line (Unix.in_channel_of_descr fd))

(* A reply far larger than the socket's send buffer goes out in partial
   writes, each resuming where the last one stopped. *)
let test_large_reply_whole () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  let n = 50_000 in
  let rows = List.init n (fun i -> Printf.sprintf "%d %d" i (n - i)) in
  (match Dl_client.load c "kv" rows with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "LOAD failed");
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, got)) ->
    let tab = String.map (fun ch -> if ch = ' ' then '\t' else ch) in
    let want = List.map tab rows in
    check Alcotest.(list string) "rows" (List.sort compare want)
      (List.sort compare got)
  | _ -> Alcotest.fail "large query failed"

(* A batch whose accumulated payload exceeds max_batch_bytes is rejected
   with ERR proto (its buffered lines dropped) and the session survives. *)
let test_batch_bytes_cap () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  let line = String.make P.max_line 'x' in
  let n = (P.max_batch_bytes / P.max_line) + 1 in
  (match Dl_client.load c "kv" (List.init n (fun _ -> line)) with
  | Ok (Dl_client.Err ("proto", _)) -> ()
  | Ok _ -> Alcotest.fail "oversized batch not rejected as ERR proto"
  | Error m -> Alcotest.failf "oversized batch killed the connection: %s" m);
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "connection dead after oversized batch"

(* The acceptance test: N client domains mix ASSERT and QUERY against one
   server; every acked fact is unique, so the served relation must equal
   the acked set exactly, with zero phase violations. *)
let test_concurrent_clients () =
  let domains = 4 and per = 120 in
  with_server ~flip_pending:16 ~flip_interval_ms:2 () @@ fun addr ->
  (with_client addr @@ fun c -> install c);
  let acked = Array.make domains 0 in
  let clients =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            with_client addr @@ fun c ->
            for i = 0 to per - 1 do
              (* (i, w) is globally unique per client *)
              (match
                 Dl_client.assert_fact c "kv"
                   [ string_of_int i; string_of_int w ]
               with
              | Ok (Dl_client.Ok_ _) -> acked.(w) <- acked.(w) + 1
              | Ok (Dl_client.Err (code, m)) ->
                Alcotest.failf "client %d assert: %s %s" w code m
              | Ok _ | Error _ -> Alcotest.failf "client %d assert died" w);
              (* interleave reads: row count for this client only grows *)
              if i land 15 = 0 then
                match Dl_client.query c "out" [ "_"; string_of_int w ] with
                | Ok (Dl_client.Data (_, rows)) ->
                  if List.length rows > i + 1 then
                    Alcotest.failf "client %d sees %d rows at i=%d" w
                      (List.length rows) i
                | Ok (Dl_client.Err (code, m)) ->
                  Alcotest.failf "client %d query: %s %s" w code m
                | Ok _ | Error _ -> Alcotest.failf "client %d query died" w
            done))
  in
  List.iter Domain.join clients;
  Array.iteri (fun w n -> checki (Printf.sprintf "client %d acks" w) per n)
    acked;
  with_client addr @@ fun c ->
  (match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) ->
    checki "total served" (domains * per) (List.length rows);
    let seen = Hashtbl.create (domains * per) in
    List.iter (fun r -> Hashtbl.replace seen r ()) rows;
    for w = 0 to domains - 1 do
      for i = 0 to per - 1 do
        let row = Printf.sprintf "%d\t%d" i w in
        if not (Hashtbl.mem seen row) then
          Alcotest.failf "acked fact %S not served" row
      done
    done
  | _ -> Alcotest.fail "audit query failed");
  match stats_field c "phase_violations" with
  | Some "0" -> ()
  | Some v -> Alcotest.failf "phase_violations=%s" v
  | None -> Alcotest.fail "STATS missing phase_violations"

(* --- the resident engine ------------------------------------------ *)

let ok what = function
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "%s: %s %s" what code m
  | Ok _ | Error _ -> Alcotest.failf "%s: bad reply" what

let rows c rel =
  match Dl_client.query c rel [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) -> List.sort compare rows
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "QUERY %s: %s %s" rel code m
  | Ok _ | Error _ -> Alcotest.failf "QUERY %s: bad reply" rel

let int_field c name =
  match stats_field c name with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "STATS missing %s" name

(* Query symbols are looked up, never interned: with a resident symbol
   table, interning every unknown query symbol would grow the server
   forever. *)
let test_query_symbols_not_interned () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  ok "RULES"
    (Dl_client.rules c
       ".decl kv(k:symbol, v:number)\n.input kv\n\
        .decl out(k:symbol, v:number)\nout(k, v) :- kv(k, v).\n");
  ok "ASSERT" (Dl_client.assert_fact c "kv" [ "alpha"; "1" ]);
  checki "known symbol answers" 1
    (match Dl_client.query c "out" [ "alpha"; "_" ] with
    | Ok (Dl_client.Data (_, rows)) -> List.length rows
    | _ -> Alcotest.fail "QUERY alpha: bad reply");
  let before = int_field c "symbols" in
  for i = 1 to 1_000 do
    match Dl_client.query c "out" [ Printf.sprintf "fresh%d" i; "_" ] with
    | Ok (Dl_client.Data (_, [])) -> ()
    | _ -> Alcotest.failf "QUERY fresh%d: expected no rows" i
  done;
  checki "symbol count unchanged" before (int_field c "symbols")

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "test-dlserve-data-%d-%d" (Unix.getpid ()) !n)
    in
    (try
       Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
       Unix.rmdir d
     with Sys_error _ | Unix.Unix_error _ -> ());
    d

let durable_cfg ?(compact_segments = 2) ?(segment_bytes = 4096) dir addr =
  {
    (Dl_server.default_config addr) with
    Dl_server.workers = 2;
    flip_pending = 32;
    flip_interval_ms = 5;
    check_phases = true;
    data_dir = Some dir;
    durability = Wal.D_batch;
    wal_segment_bytes = segment_bytes;
    wal_compact_segments = compact_segments;
  }

let with_durable_server ?compact_segments ?segment_bytes dir k =
  let addr = fresh_addr () in
  let cfg = durable_cfg ?compact_segments ?segment_bytes dir addr in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    with_client addr k

let derived_program rule =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl out(a:number, b:number)\n.output out\n\
   .decl pad(a:number)\n.input pad\n" ^ rule

(* A base fact asserted into a relation that also has rules stays apart
   from the tuples derived into it: a program change drops what the old
   rules derived, and a snapshot persists only base facts. *)
let test_derived_relation_snapshot () =
  let dir = fresh_dir () in
  (with_durable_server dir @@ fun c ->
   ok "RULES 1" (Dl_client.rules c (derived_program "out(x, y) :- kv(x, y).\n"));
   ok "ASSERT kv" (Dl_client.assert_fact c "kv" [ "1"; "2" ]);
   ok "ASSERT out" (Dl_client.assert_fact c "out" [ "7"; "8" ]);
   check
     Alcotest.(list string)
     "derived and asserted" [ "1\t2"; "7\t8" ] (rows c "out");
   ok "RULES 2" (Dl_client.rules c (derived_program "out(x, y) :- kv(y, x).\n"));
   check
     Alcotest.(list string)
     "re-derived under the new rule" [ "2\t1"; "7\t8" ] (rows c "out");
   (* grow the log past its segments until a flip compacts it *)
   let batch = ref 0 in
   while int_field c "wal_compactions" = 0 && !batch < 20 do
     incr batch;
     ok "LOAD pad"
       (Dl_client.load c "pad"
          (List.init 600 (fun i -> string_of_int ((!batch * 1000) + i))));
     ignore (rows c "out" : string list)
   done;
   checkb "the log was compacted" true (int_field c "wal_compactions" > 0);
   check
     Alcotest.(list string)
     "served after compaction" [ "2\t1"; "7\t8" ] (rows c "out"));
  with_durable_server dir @@ fun c ->
  check
    Alcotest.(list string)
    "recovered" [ "2\t1"; "7\t8" ] (rows c "out");
  check Alcotest.(list string) "base kv" [ "1\t2" ] (rows c "kv");
  (* without rules for out, only its base fact is left *)
  ok "RULES 3" (Dl_client.rules c (derived_program ""));
  check Alcotest.(list string) "only base facts" [ "7\t8" ] (rows c "out")

(* A snapshot streams each relation out of the engine as several
   bounded records.  Symbol keys of 130 bytes over 7k rows render to
   more than three records, so the symbols are rendered back across
   record boundaries; a restart must serve exactly the acked rows and
   find keys by name.  DATA replies carry a symbol as its id, and ids
   are not stable across a restart, so served rows are compared by
   their values and by lookups of keys by name. *)
let test_symbol_snapshot_round_trip () =
  let dir = fresh_dir () in
  let program =
    ".decl sk(k:symbol, v:number)\n.input sk\n\
     .decl pad(a:number)\n.input pad\n"
  in
  let key i = Printf.sprintf "key%05d%s" i (String.make 122 (Char.chr (97 + (i mod 26)))) in
  let n = 7200 and per_load = 600 in
  (* the value column of each served row; the key column is an id *)
  let sk_values c pats =
    match Dl_client.query c "sk" pats with
    | Ok (Dl_client.Data (_, rows)) ->
      List.sort compare
        (List.map
           (fun r ->
             match String.split_on_char '\t' r with
             | [ _; v ] -> int_of_string v
             | _ -> Alcotest.failf "bad sk row %S" r)
           rows)
    | _ -> Alcotest.failf "QUERY sk %s: bad reply" (String.concat " " pats)
  in
  (with_durable_server dir @@ fun c ->
   ok "RULES" (Dl_client.rules c program);
   for b = 0 to (n / per_load) - 1 do
     ok "LOAD sk"
       (Dl_client.load c "sk"
          (List.init per_load (fun j ->
               let i = (b * per_load) + j in
               Printf.sprintf "%s %d" (key i) (i * 7))));
     ignore (sk_values c [ key 0; "_" ] : int list)
   done;
   (* compact once more after the last sk row, so the final snapshot
      holds every one of them *)
   let compactions = int_field c "wal_compactions" in
   let batch = ref 0 in
   while int_field c "wal_compactions" = compactions && !batch < 20 do
     incr batch;
     ok "LOAD pad"
       (Dl_client.load c "pad"
          (List.init 600 (fun i -> string_of_int ((!batch * 1000) + i))));
     ignore (sk_values c [ key 0; "_" ] : int list)
   done;
   checkb "compacted after the last sk row" true
     (int_field c "wal_compactions" > compactions));
  (* the sk facts after the log's last anchor are the snapshot's *)
  let records = ref 0 and lines = ref 0 in
  let replay e =
    (match e with
    | Wal.Anchor _ ->
      records := 0;
      lines := 0
    | Wal.Facts ("sk", ls) ->
      incr records;
      lines := !lines + List.length ls
    | _ -> ());
    Ok ()
  in
  (match Wal.open_dir ~replay ~durability:Wal.D_none dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (w, _) ->
    Wal.close w;
    let records = !records and lines = !lines in
    checki "the snapshot holds every sk row" n lines;
    checkb
      (Printf.sprintf "sk spans >= 3 snapshot records (%d)" records)
      true (records >= 3));
  with_durable_server dir @@ fun c ->
  check
    Alcotest.(list int)
    "served rows equal acked rows" (List.init n (fun i -> i * 7))
    (sk_values c [ "_"; "_" ]);
  checki "every key a distinct symbol" n (int_field c "symbols");
  for j = 0 to 19 do
    let i = j * 359 in
    check
      Alcotest.(list int)
      (Printf.sprintf "key %d by name" i)
      [ i * 7 ] (sk_values c [ key i; "_" ])
  done

(* The fallback path: a flip that fails after the engine's input
   relations were updated leaves it part-way; the server rebuilds it from
   its base facts, and the answers equal the acked facts. *)
let test_failed_flip_rebuilds () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  ok "RULES"
    (Dl_client.rules c
       ".decl kv(a:number, b:number)\n.input kv\n\
        .decl out(a:number, b:number)\n.decl big(a:number)\n\
        out(x, y) :- kv(x, y), !big(x).\nbig(x) :- kv(x, y), y > 100.\n");
  let acked = ref [] in
  let assert_kv a b =
    ok "ASSERT" (Dl_client.assert_fact c "kv" [ string_of_int a; string_of_int b ]);
    if b <= 100 then acked := Printf.sprintf "%d\t%d" a b :: !acked
  in
  for i = 1 to 10 do
    assert_kv i i
  done;
  checki "served before the drill" 10 (List.length (rows c "out"));
  let failures =
    Fun.protect ~finally:Chaos.disable @@ fun () ->
    Chaos.configure ~seed:3 [ (Chaos.Point.Server_flip_fail, 1) ];
    assert_kv 11 11;
    assert_kv 3 300;
    (match Dl_client.query c "out" [ "_"; "_" ] with
    | Ok (Dl_client.Err ("internal", _)) -> ()
    | _ -> Alcotest.fail "query answered while every flip fails");
    Chaos.fired Chaos.Point.Server_flip_fail
  in
  checkb "flips failed" true (failures >= 3);
  assert_kv 12 12;
  acked := List.filter (fun r -> r <> "3\t3") !acked;
  check
    Alcotest.(list string)
    "answers equal the acked facts"
    (List.sort compare !acked) (rows c "out");
  checki "rebuilt engine serves every input" 13 (List.length (rows c "kv"))

(* --- indexed query serving ------------------------------------------ *)

(* Datalog source of a parsed program, as RULES takes it. *)
let program_source (p : Ast.program) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (d : Ast.decl) ->
      Printf.bprintf b ".decl %s(%s)\n" d.Ast.name
        (String.concat ", "
           (List.init d.Ast.arity (fun i -> Printf.sprintf "c%d:number" i)));
      if d.Ast.is_input then Printf.bprintf b ".input %s\n" d.Ast.name;
      if d.Ast.is_output then Printf.bprintf b ".output %s\n" d.Ast.name)
    p.Ast.decls;
  List.iter
    (fun r -> Buffer.add_string b (Format.asprintf "%a\n" Ast.pp_rule r))
    p.Ast.rules;
  Buffer.contents b

let query_rows c rel pats =
  match Dl_client.query c rel pats with
  | Ok (Dl_client.Data (_, rows)) -> List.sort compare rows
  | _ -> Alcotest.failf "QUERY %s %s: bad reply" rel (String.concat " " pats)

(* The same 100 [QUERY vpt <v> _] on a points-to database at two sizes
   10x apart: each is a range scan of vpt's primary, so the tuples
   examined beyond the rows returned stay bounded (at most one boundary
   tuple per query) instead of growing with |vpt|.  [vpt _ <o>] has no
   index whose order starts with column 1 and is answered by the
   documented fallback, a filtered scan of the whole relation. *)
let test_query_work_flat () =
  List.iter
    (fun scale ->
      with_server () @@ fun addr ->
      with_client addr @@ fun c ->
      let pc = Pointsto_gen.scaled scale in
      ok "RULES" (Dl_client.rules c (program_source (Pointsto_gen.program pc)));
      let by_rel = Hashtbl.create 8 in
      List.iter
        (fun (rel, tup) ->
          let line =
            String.concat " " (Array.to_list (Array.map string_of_int tup))
          in
          Hashtbl.replace by_rel rel
            (line :: Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
        (Pointsto_gen.facts pc (Rng.create 1));
      Hashtbl.iter (fun rel lines -> ok "LOAD" (Dl_client.load c rel lines)) by_rel;
      let all = List.map (String.split_on_char '\t') (query_rows c "vpt" [ "_"; "_" ]) in
      let size = List.length all in
      let expect col v =
        List.sort compare
          (List.filter_map
             (fun row ->
               if List.nth row col = v then Some (String.concat "\t" row) else None)
             all)
      in
      let examined0 = int_field c "query_examined"
      and rows0 = int_field c "query_rows" in
      let returned = ref 0 in
      for v = 0 to 99 do
        let got = query_rows c "vpt" [ string_of_int v; "_" ] in
        check
          Alcotest.(list string)
          (Printf.sprintf "scale %g: vpt %d _" scale v)
          (expect 0 (string_of_int v)) got;
        returned := !returned + List.length got
      done;
      let examined = int_field c "query_examined" - examined0
      and rows = int_field c "query_rows" - rows0 in
      checki "rows counted" !returned rows;
      checkb
        (Printf.sprintf "scale %g (|vpt| = %d): examined %d - rows %d <= 100"
           scale size examined rows)
        true
        (examined - rows <= 100);
      let o = List.nth (List.hd all) 1 in
      let examined0 = int_field c "query_examined" in
      check
        Alcotest.(list string)
        (Printf.sprintf "scale %g: vpt _ %s" scale o)
        (expect 1 o) (query_rows c "vpt" [ "_"; o ]);
      checki "fallback scans the relation" size
        (int_field c "query_examined" - examined0))
    [ 0.02; 0.2 ]

(* --- client framing ------------------------------------------------ *)

(* A scripted peer in place of the server: it greets, then for every
   request line the client sends it writes [reply i] for the i-th request
   as the given list of chunks, pausing between them so each chunk
   arrives in its own read. *)
let with_scripted_peer reply k =
  let addr = fresh_addr () in
  let path =
    match addr with
    | Telemetry_server.Unix_sock p -> p
    | _ -> Alcotest.fail "expected a unix-socket address"
  in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let peer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept lfd in
        let write s =
          let n = String.length s in
          let off = ref 0 in
          while !off < n do
            off := !off + Unix.write_substring fd s !off (n - !off)
          done
        in
        let ic = Unix.in_channel_of_descr fd in
        write (P.greeting ^ "\n");
        let rec serve i =
          match input_line ic with
          | _ ->
            List.iteri
              (fun j chunk ->
                if j > 0 then Unix.sleepf 0.0005;
                write chunk)
              (reply i);
            serve (i + 1)
          | exception End_of_file -> ()
        in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> serve 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join peer;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> with_client addr k)

let data_reply rows =
  String.concat ""
    (Printf.sprintf "DATA %d rows\n" (List.length rows)
    :: List.map (fun r -> r ^ "\n") rows)
  ^ "END\n"

(* 100k rows in one reply: the reader must not recopy its buffer per
   line, and must grow it when a line outgrows it. *)
let test_client_large_reply () =
  let rows = List.init 100_000 (fun i -> Printf.sprintf "%d\t%d" i (i * 7)) in
  let long = String.make 20_000 'x' in
  let replies = [| [ data_reply rows ]; [ data_reply [ long; "1\t2" ] ] |] in
  with_scripted_peer (fun i -> replies.(i)) @@ fun c ->
  (match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data ("rows", got)) ->
    checki "row count" 100_000 (List.length got);
    checkb "rows in order" true (got = rows)
  | _ -> Alcotest.fail "100k-row reply: bad reply");
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, [ l; "1\t2" ])) -> checki "long row" 20_000 (String.length l)
  | _ -> Alcotest.fail "long-row reply: bad reply"

(* The same reply split into two reads at every byte offset, then one
   read per byte: every framing decision must survive a boundary. *)
let test_client_split_reads () =
  let reply = data_reply [ "1\t2"; ""; "3\t4" ] in
  let n = String.length reply in
  let script i =
    if i <= n then [ String.sub reply 0 i; String.sub reply i (n - i) ]
    else List.init n (fun j -> String.make 1 reply.[j])
  in
  with_scripted_peer script @@ fun c ->
  for i = 0 to n + 1 do
    match Dl_client.query c "out" [ "_"; "_" ] with
    | Ok (Dl_client.Data ("rows", [ "1\t2"; ""; "3\t4" ])) -> ()
    | _ -> Alcotest.failf "split at %d: bad reply" i
  done

(* A trailing CR is stripped from every line; an interior one is data. *)
let test_client_crlf () =
  let reply = "DATA 2 crlf\r\n1\t2\r\na\rb\r\nEND\r\n" in
  with_scripted_peer (fun _ -> [ reply ]) @@ fun c ->
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data ("crlf", [ "1\t2"; "a\rb" ])) -> ()
  | _ -> Alcotest.fail "CRLF reply: bad reply"

(* --- recovery equivalence ------------------------------------------ *)

(* A restarted durable server serves exactly what was acked before it
   stopped.  Recovery streams the log into the engine, so each test
   builds a log of one shape, restarts on it, and compares every
   relation, base and derived (a direct stratum [inv], a recursive one
   [reach]), with what the first server served and with the acked rows. *)
let recovery_program =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl inv(b:number, a:number)\n\
   .decl reach(a:number, b:number)\n\
   .decl pad(a:number)\n.input pad\n\
   inv(y, x) :- kv(x, y).\n\
   reach(x, y) :- kv(x, y).\n\
   reach(x, z) :- reach(x, y), kv(y, z).\n"

let recovery_rels = [ ("kv", 2); ("inv", 2); ("reach", 2); ("pad", 1) ]

let served c =
  List.map
    (fun (rel, arity) ->
      match Dl_client.query c rel (List.init arity (fun _ -> "_")) with
      | Ok (Dl_client.Data (_, rows)) -> (rel, List.sort compare rows)
      | _ -> Alcotest.failf "QUERY %s: bad reply" rel)
    recovery_rels

let kv_row a b = Printf.sprintf "%d\t%d" a b

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Restart on [dir] and require the relations [before] the stop, the
   acked [kv] rows, and the torn-tail flag. *)
let check_restart ?compact_segments ~torn dir before acked_kv =
  with_durable_server ?compact_segments dir @@ fun c ->
  let after = served c in
  check
    Alcotest.(list string)
    "kv served = kv acked"
    (List.sort_uniq compare acked_kv)
    (List.assoc "kv" after);
  List.iter
    (fun (rel, rows) ->
      check Alcotest.(list string) ("restart serves " ^ rel) rows
        (List.assoc rel after))
    before;
  check Alcotest.string "recovered_torn_tail" (string_of_bool torn)
    (Option.value (stats_field c "recovered_torn_tail") ~default:"<missing>")

let assert_row c a b =
  ok "ASSERT kv" (Dl_client.assert_fact c "kv" [ string_of_int a; string_of_int b ])

(* A flip answers its waiting queries before it commits.  Under batch,
   each round of an ASSERT and a QUERY that forces a flip is answered with
   the asserted row at the next generation, and the flip still appends its
   group commit afterwards: the log's fsyncs rise by exactly one per flip
   (the segments never rotate or compact here), none dropped or merged,
   and a restart serves every acked row. *)
let test_flip_commits_after_answers () =
  let dir = fresh_dir () in
  let rounds = 30 in
  let gen_of info = Scanf.sscanf info "%_s rows=%_d gen=%d" Fun.id in
  let durable k =
    with_durable_server ~compact_segments:1000 ~segment_bytes:(1 lsl 20) dir k
  in
  let acked =
    durable @@ fun c ->
    install c;
    ignore (rows c "out" : string list);
    let flips0 = int_field c "flips" and fsyncs0 = int_field c "wal_fsyncs" in
    let gen0 = int_field c "generation" in
    List.init rounds (fun i ->
        let i = i + 1 in
        let row = Printf.sprintf "%d\t%d" i (i * 3) in
        assert_row c i (i * 3);
        (match Dl_client.query c "out" [ string_of_int i; "_" ] with
        | Ok (Dl_client.Data (info, got)) ->
          check Alcotest.(list string) "the answer holds the row" [ row ] got;
          checki "the answer is of the next generation" (gen0 + i)
            (gen_of info)
        | _ -> Alcotest.failf "QUERY out(%d, _): bad reply" i);
        checki "one flip per round" (flips0 + i) (int_field c "flips");
        checki "one group-commit fsync per flip" (fsyncs0 + i)
          (int_field c "wal_fsyncs");
        row)
  in
  durable @@ fun c ->
  check Alcotest.(list string) "a restart serves every acked row"
    (List.sort compare acked) (rows c "out")

(* A log that starts at a snapshot anchor and goes on with many one-row
   ASSERT records after it. *)
let test_recovery_anchor_and_asserts () =
  let dir = fresh_dir () in
  let acked = ref [] in
  let before =
    with_durable_server dir @@ fun c ->
    ok "RULES" (Dl_client.rules c recovery_program);
    for i = 1 to 40 do
      assert_row c i ((i * 7) mod 41);
      acked := kv_row i ((i * 7) mod 41) :: !acked
    done;
    (* LOADs outgrow the 4 KiB segments until a flip compacts the log *)
    let batch = ref 0 in
    while int_field c "wal_compactions" = 0 && !batch < 20 do
      incr batch;
      ok "LOAD pad"
        (Dl_client.load c "pad"
           (List.init 300 (fun i -> string_of_int ((!batch * 1000) + i))));
      ignore (served c : (string * string list) list)
    done;
    let compactions = int_field c "wal_compactions" in
    checkb "the log was compacted" true (compactions > 0);
    for i = 1 to 120 do
      let a = i mod 37 and b = (i * 11) mod 41 in
      assert_row c a b;
      acked := kv_row a b :: !acked
    done;
    let rows = served c in
    checki "the ASSERTs follow the anchor" compactions
      (int_field c "wal_compactions");
    rows
  in
  check_restart ~torn:false dir before !acked

(* A RULES change that drops a relation whose facts, symbols among them,
   were logged before it. *)
let test_recovery_dropped_relation () =
  let dir = fresh_dir () in
  let with_gone =
    recovery_program ^ ".decl gone(s:symbol, a:number)\n.input gone\n"
  in
  let acked = ref [] in
  let kv c a b =
    assert_row c a b;
    acked := kv_row a b :: !acked
  in
  let unknown c =
    match Dl_client.query c "gone" [ "_"; "_" ] with
    | Ok (Dl_client.Err ("relation", _)) -> ()
    | _ -> Alcotest.fail "QUERY gone: expected ERR relation"
  in
  let before =
    with_durable_server ~compact_segments:1000 dir @@ fun c ->
    ok "RULES with gone" (Dl_client.rules c with_gone);
    for i = 1 to 30 do
      ok "ASSERT gone"
        (Dl_client.assert_fact c "gone" [ Printf.sprintf "sym%d" i; string_of_int i ]);
      kv c i (i + 1)
    done;
    ok "LOAD gone"
      (Dl_client.load c "gone"
         (List.init 50 (fun i -> Printf.sprintf "bulk%d %d" i i)));
    ignore (served c : (string * string list) list);
    ok "RULES without gone" (Dl_client.rules c recovery_program);
    for i = 31 to 60 do
      kv c i (i mod 13)
    done;
    unknown c;
    served c
  in
  check_restart ~compact_segments:1000 ~torn:false dir before !acked;
  with_durable_server ~compact_segments:1000 dir unknown

let segment_paths dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* A final segment torn mid-append (a record header promising more bytes
   than follow): the acked records before it are replayed, the tail is
   cut off, and a second restart finds the log clean. *)
let test_recovery_torn_final_segment () =
  let dir = fresh_dir () in
  let acked = ref [] in
  let before =
    with_durable_server ~compact_segments:1000 dir @@ fun c ->
    ok "RULES" (Dl_client.rules c recovery_program);
    for i = 1 to 80 do
      assert_row c (i mod 29) (i mod 31);
      acked := kv_row (i mod 29) (i mod 31) :: !acked
    done;
    served c
  in
  let last = List.nth (segment_paths dir) (List.length (segment_paths dir) - 1) in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 last
    (fun oc -> output_string oc "\x40\x00\x00\x00\x12\x34\x56\x78Fkv\n1 ");
  check_restart ~compact_segments:1000 ~torn:true dir before !acked;
  check_restart ~compact_segments:1000 ~torn:false dir before !acked

(* A corrupt record in a non-final segment: [start] returns [Error],
   takes no listener and releases the lock, so a later start reports the
   corruption again, not a lock conflict; once the byte is repaired the
   log recovers in full. *)
let test_recovery_corrupt_refused () =
  let dir = fresh_dir () in
  let acked = ref [] in
  let before =
    with_durable_server ~compact_segments:1000 dir @@ fun c ->
    ok "RULES" (Dl_client.rules c recovery_program);
    ok "LOAD kv"
      (Dl_client.load c "kv"
         (List.init 800 (fun i -> Printf.sprintf "%d %d" i ((i * 3) mod 50))));
    acked := List.init 800 (fun i -> kv_row i ((i * 3) mod 50));
    for i = 1 to 40 do
      ok "LOAD pad" (Dl_client.load c "pad" [ string_of_int i ])
    done;
    served c
  in
  let segs = segment_paths dir in
  checkb "several segments" true (List.length segs > 1);
  (* one byte of the first record's payload, past magic and header *)
  let flip () =
    let fd = Unix.openfile (List.hd segs) [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let off = 8 + 9 + 2 in
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd off Unix.SEEK_SET : int);
    ignore (Unix.read fd b 0 1 : int);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    ignore (Unix.lseek fd off Unix.SEEK_SET : int);
    ignore (Unix.write fd b 0 1 : int)
  in
  let refused () =
    let addr = fresh_addr () in
    (match Dl_server.start (durable_cfg ~compact_segments:1000 dir addr) with
    | Ok srv ->
      Dl_server.stop srv;
      Alcotest.fail "a corrupt non-final segment did not refuse the start"
    | Error m ->
      checkb ("refusal names the corruption: " ^ m) true
        (contains m "non-final" && not (contains m "locked")));
    (match addr with
    | Telemetry_server.Unix_sock path ->
      checkb "no socket left behind" false (Sys.file_exists path)
    | Telemetry_server.Tcp _ -> ());
    match Dl_client.connect addr with
    | Ok c ->
      Dl_client.close c;
      Alcotest.fail "a refused start left a listener"
    | Error _ -> ()
  in
  flip ();
  refused ();
  refused ();
  flip ();
  check_restart ~compact_segments:1000 ~torn:false dir before !acked

(* SHUTDOWN drains: the issuing client gets OK, the server exits, and the
   socket stops accepting. *)
let test_shutdown () =
  let addr = fresh_addr () in
  let cfg =
    { (Dl_server.default_config addr) with Dl_server.workers = 2 }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    (with_client addr @@ fun c ->
     match Dl_client.shutdown c with
     | Ok (Dl_client.Ok_ _) -> ()
     | _ -> Alcotest.fail "SHUTDOWN: bad reply");
    Dl_server.wait srv;
    (match Dl_client.connect addr with
    | Error _ -> ()
    | Ok c ->
      Dl_client.close c;
      Alcotest.fail "server still accepting after shutdown")

(* A signal stops a server whose main domain is blocked in [wait], as
   SIGTERM stops datalog_serve: the handler calls [signal_stop], and
   [wait] returns within a second of the signal.  The signal comes from
   another process, as a [kill] would.  Should the handler never run, a
   watchdog sends SHUTDOWN after 3 s so that the test fails rather than
   hangs. *)
let test_signal_stops_wait () =
  let addr = fresh_addr () in
  let cfg =
    { (Dl_server.default_config addr) with Dl_server.workers = 2 }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    let handled = Atomic.make false and waited = Atomic.make false in
    let previous =
      Sys.signal Sys.sigterm
        (Sys.Signal_handle
           (fun _ ->
             Atomic.set handled true;
             Dl_server.signal_stop srv))
    in
    Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
    @@ fun () ->
    let watchdog =
      Domain.spawn (fun () ->
          let deadline = Unix.gettimeofday () +. 3.0 in
          while (not (Atomic.get waited)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          if not (Atomic.get waited) then
            match Dl_client.connect addr with
            | Ok c ->
              ignore (Dl_client.shutdown c);
              Dl_client.close c
            | Error _ -> ())
    in
    let delay = 0.2 in
    let killer =
      Unix.create_process "/bin/sh"
        [|
          "/bin/sh"; "-c";
          Printf.sprintf "sleep %g; kill -TERM %d" delay (Unix.getpid ());
        |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let t0 = Unix.gettimeofday () in
    Dl_server.wait srv;
    let took = Unix.gettimeofday () -. t0 -. delay in
    Atomic.set waited true;
    Domain.join watchdog;
    ignore (Unix.waitpid [] killer : int * Unix.process_status);
    checkb "the handler ran" true (Atomic.get handled);
    checkb
      (Printf.sprintf "wait returned %.2f s after the signal" took)
      true (took < 1.0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "server"
    [
      ( "proto",
        [
          tc "verbs parse" `Quick test_parse_verbs;
          tc "malformed requests rejected" `Quick test_parse_errors;
          tc "parse is total under fuzz" `Quick test_parse_total_fuzz;
          tc "int fields as int_of_string" `Quick test_value_of_token_equivalence;
          tc "response round-trip" `Quick test_response_roundtrip;
          tc "error codes closed set" `Quick test_err_codes;
        ] );
      ( "server",
        [
          tc "hostile lines yield structured ERR" `Quick test_hostile_lines;
          tc "oversized line contained" `Quick test_oversized_line;
          tc "read-your-writes" `Quick test_read_your_writes;
          tc "program swap with queued queries" `Quick
            test_rules_swap_queued_query;
          tc "LOAD reserves against max_pending" `Quick
            test_load_reserves_pending;
          tc "dropped LOAD releases its hold" `Quick test_dropped_load_releases;
          tc "connect past max_clients refused" `Quick test_client_cap;
          tc "large reply arrives whole" `Quick test_large_reply_whole;
          tc "batch payload byte cap" `Quick test_batch_bytes_cap;
          tc "concurrent clients exact audit" `Quick test_concurrent_clients;
          tc "query symbols are not interned" `Quick
            test_query_symbols_not_interned;
          tc "derived relations snapshot base facts only" `Quick
            test_derived_relation_snapshot;
          tc "symbol snapshot round trip" `Quick
            test_symbol_snapshot_round_trip;
          tc "failed flip rebuilds the engine" `Quick test_failed_flip_rebuilds;
          tc "query work flat in database size" `Quick test_query_work_flat;
          tc "shutdown drains" `Quick test_shutdown;
          tc "signal handler stops wait" `Quick test_signal_stops_wait;
        ] );
      ( "recovery",
        [
          tc "flip answers before its commit" `Quick
            test_flip_commits_after_answers;
          tc "snapshot anchor and one-row ASSERTs" `Quick
            test_recovery_anchor_and_asserts;
          tc "RULES drops a logged relation" `Quick
            test_recovery_dropped_relation;
          tc "torn final segment" `Quick test_recovery_torn_final_segment;
          tc "corrupt non-final segment refused" `Quick
            test_recovery_corrupt_refused;
        ] );
      ( "client",
        [
          tc "100k-row DATA reply" `Quick test_client_large_reply;
          tc "replies split across reads" `Quick test_client_split_reads;
          tc "CRLF stripping" `Quick test_client_crlf;
        ] );
    ]
