(* Live telemetry service tests: address parsing, endpoint contracts, the
   windowed-delta ring, health degradation, and — the load-bearing one —
   concurrent scrape-during-eval: four writer domains ingest into a B-tree
   while the main domain scrapes /metrics and /snapshot.json in a loop,
   asserting no torn or decreasing counter reads and a valid exposition
   document every time. *)

module TS = Telemetry_server
module T = Btree.Make (Key.Int)

let ( let@ ) f k = f k

(* Start a server on an ephemeral loopback port, run [k], always stop. *)
let with_server ?interval_ms ?window_count () k =
  match TS.start ?interval_ms ?window_count (TS.Tcp ("127.0.0.1", 0)) with
  | Error m -> Alcotest.failf "start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> TS.stop srv) (fun () -> k srv)

let fetch_ok srv path =
  match TS.fetch (TS.bound srv) path with
  | Ok (code, body) -> (code, body)
  | Error m -> Alcotest.failf "fetch %s: %s" path m

let json_of body =
  try Telemetry.Json.of_string body
  with Telemetry.Json.Parse_error m ->
    Alcotest.failf "body is not valid JSON (%s): %s" m body

let member_exn name j =
  match Telemetry.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "JSON missing member %S" name

let schema_of j =
  match member_exn "schema" j with
  | Telemetry.Json.String s -> s
  | _ -> Alcotest.fail "schema is not a string"

(* --- Prometheus exposition validator ------------------------------- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  s <> ""
  && is_name_start s.[0]
  && String.for_all is_name_char s

let valid_value s =
  match s with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> ( match float_of_string_opt s with Some _ -> true | None -> false)

(* One exposition line: comment/HELP/TYPE, or [name[{labels}] value].
   Label values may contain anything except an unescaped quote, so the
   value token is whatever follows the labels' closing brace. *)
let valid_line line =
  if line = "" then true
  else if String.length line >= 2 && String.sub line 0 2 = "# " then
    match String.split_on_char ' ' line with
    | "#" :: ("HELP" | "TYPE") :: name :: _ :: _ -> valid_name name
    | _ -> true (* free-form comment *)
  else
    let name_part, value_part =
      match String.index_opt line '{' with
      | Some i -> (
        match String.rindex_opt line '}' with
        | Some j when j > i ->
          let rest = String.sub line (j + 1) (String.length line - j - 1) in
          (String.sub line 0 i, String.trim rest)
        | _ -> ("", ""))
      | None -> (
        match String.index_opt line ' ' with
        | Some i ->
          ( String.sub line 0 i,
            String.sub line (i + 1) (String.length line - i - 1) )
        | None -> ("", ""))
    in
    valid_name name_part && valid_value value_part

let check_exposition body =
  List.iteri
    (fun i line ->
      if not (valid_line line) then
        Alcotest.failf "invalid exposition line %d: %S" (i + 1) line)
    (String.split_on_char '\n' body)

let metric_value body name =
  let prefix = name ^ " " in
  List.find_map
    (fun line ->
      if
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        float_of_string_opt
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' body)

(* --- address parsing ----------------------------------------------- *)

let test_parse_addr () =
  (match TS.parse_addr "unix:/tmp/x.sock" with
  | Ok (TS.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix:PATH");
  (match TS.parse_addr "9090" with
  | Ok (TS.Tcp ("127.0.0.1", 9090)) -> ()
  | _ -> Alcotest.fail "bare port binds loopback");
  (match TS.parse_addr "0.0.0.0:8080" with
  | Ok (TS.Tcp ("0.0.0.0", 8080)) -> ()
  | _ -> Alcotest.fail "HOST:PORT");
  (match TS.parse_addr ":7070" with
  | Ok (TS.Tcp ("0.0.0.0", 7070)) -> ()
  | _ -> Alcotest.fail ":PORT binds all interfaces");
  List.iter
    (fun bad ->
      match TS.parse_addr bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" bad)
    [ "not-an-addr"; "host:port"; "unix:"; "" ]

(* --- endpoint contracts (idle server) ------------------------------ *)

let test_endpoints () =
  TS.Health.reset ();
  let@ srv = with_server ~interval_ms:20 () in
  (* give the monitor a tick so a window exists *)
  Unix.sleepf 0.08;
  let code, body = fetch_ok srv "/health" in
  Alcotest.(check int) "health is 200 when quiet" 200 code;
  Alcotest.(check string) "health schema" "telemetry_health/1"
    (schema_of (json_of body));
  let code, body = fetch_ok srv "/snapshot.json" in
  Alcotest.(check int) "snapshot 200" 200 code;
  let j = json_of body in
  Alcotest.(check string) "snapshot schema" "telemetry_window/1" (schema_of j);
  (match member_exn "window" j with
  | Telemetry.Json.Obj _ -> ()
  | _ -> Alcotest.fail "snapshot carries a completed window");
  let code, body = fetch_ok srv "/heat" in
  Alcotest.(check int) "heat 200" 200 code;
  Alcotest.(check string) "heat schema" "telemetry_heat/1"
    (schema_of (json_of body));
  let code, body = fetch_ok srv "/trace" in
  Alcotest.(check int) "trace 200" 200 code;
  Alcotest.(check string) "trace schema" "telemetry_trace/1"
    (schema_of (json_of body));
  let code, body = fetch_ok srv "/metrics" in
  Alcotest.(check int) "metrics 200" 200 code;
  check_exposition body;
  let code, _ = fetch_ok srv "/" in
  Alcotest.(check int) "index 200" 200 code;
  let code, _ = fetch_ok srv "/nope" in
  Alcotest.(check int) "unknown endpoint is 404" 404 code

let test_stop_is_clean () =
  let addr =
    let@ srv = with_server () in
    TS.bound srv
  in
  (match TS.fetch addr "/health" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "server still reachable after stop");
  (* unix-socket servers unlink their path on stop *)
  let path = Filename.temp_file "tsrv" ".sock" in
  Sys.remove path;
  (match TS.start ~interval_ms:20 (TS.Unix_sock path) with
  | Error m -> Alcotest.failf "unix start: %s" m
  | Ok srv ->
    Alcotest.(check bool) "socket file exists" true (Sys.file_exists path);
    TS.stop srv;
    Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path))

(* --- windowed deltas report rates ---------------------------------- *)

let test_windowed_rates () =
  TS.Health.reset ();
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let@ srv = with_server ~interval_ms:30 () in
  (* stay busy for several windows, then scrape while the latest completed
     window still covers the busy period *)
  let t_end = Telemetry.now_ns () + 150_000_000 in
  while Telemetry.now_ns () < t_end do
    for _ = 1 to 1_000 do
      Telemetry.bump Telemetry.Counter.Eval_rule_evals
    done
  done;
  let _, body1 = fetch_ok srv "/snapshot.json" in
  let w1 = member_exn "window" (json_of body1) in
  (* ...then a quiet one: two scrapes >= 1 window apart must differ *)
  Unix.sleepf 0.1;
  let _, body2 = fetch_ok srv "/snapshot.json" in
  let w2 = member_exn "window" (json_of body2) in
  let seq w =
    match member_exn "seq" w with
    | Telemetry.Json.Int n -> n
    | _ -> Alcotest.fail "seq not an int"
  in
  Alcotest.(check bool) "window sequence advanced" true (seq w2 > seq w1);
  let rate w =
    match Telemetry.Json.member "eval.rule_evals_per_s" (member_exn "rates" w) with
    | Some (Telemetry.Json.Float r) -> r
    | Some (Telemetry.Json.Int r) -> float_of_int r
    | _ -> 0.0
  in
  Alcotest.(check bool) "busy window reports a positive rate" true
    (rate w1 > 0.0);
  Alcotest.(check bool) "windows report rates, not cumulative totals" true
    (rate w2 < rate w1)

(* --- health degradation -------------------------------------------- *)

let test_health_flips () =
  TS.Health.reset ();
  let@ srv = with_server ~interval_ms:20 () in
  Unix.sleepf 0.06;
  let code, _ = fetch_ok srv "/health" in
  Alcotest.(check int) "starts ok" 200 code;
  TS.Health.note_watchdog_trip ();
  Unix.sleepf 0.05;
  let code, body = fetch_ok srv "/health" in
  Alcotest.(check int) "watchdog trip degrades" 503 code;
  (match member_exn "status" (json_of body) with
  | Telemetry.Json.String "degraded" -> ()
  | _ -> Alcotest.fail "status should be degraded");
  (* trips age out once they leave the health span (3 windows) *)
  Unix.sleepf 0.2;
  let code, _ = fetch_ok srv "/health" in
  Alcotest.(check int) "degradation ages out" 200 code;
  TS.Health.note_uncontained "boom";
  let code, body = fetch_ok srv "/health" in
  Alcotest.(check int) "uncontained is critical" 503 code;
  (match member_exn "status" (json_of body) with
  | Telemetry.Json.String "critical" -> ()
  | _ -> Alcotest.fail "status should be critical");
  TS.Health.reset ();
  let code, _ = fetch_ok srv "/health" in
  Alcotest.(check int) "reset recovers" 200 code

(* --- a silent client stalls nobody ---------------------------------- *)

(* One connected client that never sends its request must not hold up
   another client's scrape, nor the sampling clock. *)
let test_silent_client () =
  TS.Health.reset ();
  let@ srv = with_server ~interval_ms:20 () in
  let port =
    match TS.bound srv with
    | TS.Tcp (_, p) -> p
    | TS.Unix_sock _ -> Alcotest.fail "expected a TCP address"
  in
  let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  Unix.connect silent (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* let the monitor accept it before the scrape arrives *)
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let code, _ = fetch_ok srv "/health" in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "health answered" 200 code;
  if took >= 0.5 then
    Alcotest.failf "/health took %.3f s behind a silent client" took;
  let seq () =
    let _, body = fetch_ok srv "/snapshot.json" in
    match Telemetry.Json.member "seq" (member_exn "window" (json_of body)) with
    | Some (Telemetry.Json.Int n) -> n
    | _ -> Alcotest.fail "window.seq missing"
  in
  let s1 = seq () in
  Unix.sleepf 0.1;
  let s2 = seq () in
  Alcotest.(check bool) "windows keep ticking" true (s2 > s1)

(* --- concurrent scrape-during-eval --------------------------------- *)

let test_scrape_during_eval () =
  TS.Health.reset ();
  Telemetry.reset ();
  Telemetry.enable ();
  Flight.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Flight.disable ())
  @@ fun () ->
  let@ srv = with_server ~interval_ms:30 () in
  let tree = T.create ~capacity:8 () in
  let stop = Atomic.make false in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let st = ref (0x9E3779B9 * (d + 1)) in
            let next () =
              let r = !st in
              let r = r lxor (r lsl 13) land max_int in
              let r = r lxor (r lsr 7) in
              let r = r lxor (r lsl 17) land max_int in
              st := r;
              r
            in
            while not (Atomic.get stop) do
              for _ = 1 to 512 do
                ignore (T.insert tree (next () land 0xFFFFF) : bool)
              done
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join writers)
  @@ fun () ->
  let last_total = ref 0.0 in
  let last_seq = ref (-1) in
  for _ = 1 to 12 do
    let code, body = fetch_ok srv "/metrics" in
    Alcotest.(check int) "metrics 200 under load" 200 code;
    check_exposition body;
    (* cumulative counters never go backwards across scrapes: per-domain
       shards are single-writer monotonic, so a racy sum is still
       monotonic — a decrease would mean a torn read *)
    (match metric_value body "repro_btree_leaf_splits_total" with
    | Some v ->
      if v < !last_total then
        Alcotest.failf "leaf splits decreased: %.0f -> %.0f" !last_total v;
      last_total := v
    | None -> Alcotest.fail "repro_btree_leaf_splits_total missing");
    let code, body = fetch_ok srv "/snapshot.json" in
    Alcotest.(check int) "snapshot 200 under load" 200 code;
    let j = json_of body in
    Alcotest.(check string) "snapshot schema under load" "telemetry_window/1"
      (schema_of j);
    (match member_exn "window" j with
    | Telemetry.Json.Obj _ as w ->
      (match member_exn "seq" w with
      | Telemetry.Json.Int s ->
        if s < !last_seq then
          Alcotest.failf "window seq went backwards: %d -> %d" !last_seq s;
        last_seq := s
      | _ -> Alcotest.fail "seq not an int")
    | Telemetry.Json.Null -> () (* no tick yet *)
    | _ -> Alcotest.fail "window is not an object");
    Unix.sleepf 0.03
  done;
  Alcotest.(check bool) "writers actually split leaves" true (!last_total > 0.0);
  Alcotest.(check bool) "windows ticked during the scrape" true (!last_seq > 0)

let () =
  Alcotest.run "telemetry_server"
    [
      ("addr", [ Alcotest.test_case "parse" `Quick test_parse_addr ]);
      ( "endpoints",
        [
          Alcotest.test_case "all five respond" `Quick test_endpoints;
          Alcotest.test_case "stop is clean" `Quick test_stop_is_clean;
        ] );
      ( "windows",
        [ Alcotest.test_case "deltas report rates" `Quick test_windowed_rates ]
      );
      ("health", [ Alcotest.test_case "degrades and recovers" `Quick test_health_flips ]);
      ( "stall",
        [
          Alcotest.test_case "silent client stalls nobody" `Quick
            test_silent_client;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "scrape during eval" `Quick test_scrape_during_eval;
        ] );
    ]
