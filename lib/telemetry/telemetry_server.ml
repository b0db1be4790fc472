(* Live telemetry service: a monitor domain on a {!Reactor}, a
   windowed-delta ring, and HTTP/1.0 scrapes served as line handlers.  See
   telemetry_server.mli for the architecture contract.

   Confinement (the R1 discipline): everything the monitor mutates (the
   window ring, previous-sample baselines, open scrapes) lives in a record
   built on the reactor's domain and never escapes it, so serving needs
   no synchronization.  The only shared state is the mutex-protected
   provider/probe registry (cold registration paths) and the Health
   atomics, bumped from the pool's cold join paths and read racily. *)

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

type addr = Tcp of string * int | Unix_sock of string

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_sock p -> "unix:" ^ p

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let parse_addr s =
  let prefix = "unix:" in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    Ok (Unix_sock (String.sub s plen (String.length s - plen)))
  else if is_digits s then Ok (Tcp ("127.0.0.1", int_of_string s))
  else
    match String.rindex_opt s ':' with
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      if not (is_digits port) then
        Error (Printf.sprintf "bad port in address %S" s)
      else
        let host = if host = "" then "0.0.0.0" else host in
        Ok (Tcp (host, int_of_string port))
    | None ->
      Error
        (Printf.sprintf
           "bad address %S (expected unix:PATH, PORT, or HOST:PORT)" s)

let resolve_host h =
  try Unix.inet_addr_of_string h
  with _ -> (
    try (Unix.gethostbyname h).Unix.h_addr_list.(0)
    with _ -> failwith ("cannot resolve host " ^ h))

(* ------------------------------------------------------------------ *)
(* Shared registries (cold paths, mutex- or atomic-protected)          *)
(* ------------------------------------------------------------------ *)

let ext_mutex = Mutex.create ()
let providers : (string * (unit -> (string * float) list)) list ref = ref []
let chaos_probe : (unit -> bool * int) option ref = ref None

let register_gauges group f =
  Mutex.protect ext_mutex (fun () -> providers := (group, f) :: !providers)

let set_chaos_probe p = Mutex.protect ext_mutex (fun () -> chaos_probe := p)
let get_providers () = Mutex.protect ext_mutex (fun () -> !providers)
let get_chaos_probe () = Mutex.protect ext_mutex (fun () -> !chaos_probe)

module Health = struct
  let watchdog_trips = Atomic.make 0
  let pool_failures = Atomic.make 0
  let failed_workers = Atomic.make 0
  let uncontained = Atomic.make 0
  let reason_mutex = Mutex.create ()
  let uncontained_reason = ref ""
  let note_watchdog_trip () = Atomic.incr watchdog_trips

  let note_pool_failure ~workers =
    Atomic.incr pool_failures;
    ignore (Atomic.fetch_and_add failed_workers workers)

  let note_uncontained reason =
    Atomic.incr uncontained;
    Mutex.protect reason_mutex (fun () -> uncontained_reason := reason)

  let reset () =
    Atomic.set watchdog_trips 0;
    Atomic.set pool_failures 0;
    Atomic.set failed_workers 0;
    Atomic.set uncontained 0;
    Mutex.protect reason_mutex (fun () -> uncontained_reason := "")

  let read_uncontained_reason () =
    Mutex.protect reason_mutex (fun () -> !uncontained_reason)
end

(* ------------------------------------------------------------------ *)
(* Windowed deltas                                                    *)
(* ------------------------------------------------------------------ *)

type window = {
  w_seq : int;
  w_start_ns : int;
  w_end_ns : int;
  w_deltas : int array;  (* indexed by Telemetry.Counter.index *)
  w_hists : Telemetry.hist array;  (* windowed deltas, Hist.index *)
  w_gauges : (string * float) list;
  w_heat : (int * int array) list;  (* level -> counts per heat class *)
  w_flight_events : int;
  w_watchdog : int;
  w_pool_failures : int;
  w_chaos_armed : bool;
  w_chaos_fired : int;
}

let clamp0 x = if x < 0 then 0 else x

(* Window histogram = bucket-wise subtraction of cumulative snapshots.
   Deltas are clamped at 0 so a quiescent [Telemetry.reset] mid-run yields
   one empty window instead of nonsense.  The window max is estimated from
   the highest nonzero delta bucket (<= the exact cumulative max). *)
let delta_hist (prev : Telemetry.hist) (cur : Telemetry.hist) =
  let n = Telemetry.Hist.bucket_count in
  let counts = Array.make n 0 in
  let top = ref (-1) in
  for b = 0 to n - 1 do
    let d = clamp0 (cur.Telemetry.h_counts.(b) - prev.Telemetry.h_counts.(b)) in
    counts.(b) <- d;
    if d > 0 then top := b
  done;
  let max_ns =
    if !top < 0 then 0
    else
      let _, hi = Telemetry.Hist.bucket_bounds !top in
      min cur.Telemetry.h_max (hi - 1)
  in
  {
    Telemetry.h_counts = counts;
    h_total = clamp0 (cur.Telemetry.h_total - prev.Telemetry.h_total);
    h_sum = clamp0 (cur.Telemetry.h_sum - prev.Telemetry.h_sum);
    h_max = max_ns;
  }

(* Per-level contention heat of the flight events stamped in (lo, hi]. *)
let heat_between ~lo ~hi =
  if not (Flight.enabled ()) then []
  else
    Flight.events ()
    |> List.filter (fun (e : Flight.event) -> e.e_ts > lo && e.e_ts <= hi)
    |> Flight.heat_of_events |> Flight.heat_levels

let sample_gauges () =
  List.concat_map
    (fun (group, f) ->
      match f () with
      | pairs -> List.map (fun (n, v) -> (group ^ "." ^ n, v)) pairs
      | exception _ -> [])
    (get_providers ())

(* ------------------------------------------------------------------ *)
(* Monitor state (domain-confined: created and mutated only on the     *)
(* monitor domain)                                                     *)
(* ------------------------------------------------------------------ *)

type mstate = {
  m_interval_ms : int;
  m_interval_ns : int;
  m_window_count : int;
  m_ring : window option array;
  mutable m_latest : window option;
  mutable m_seq : int;
  mutable m_next_tick : int;
  mutable m_prev_ts : int;
  mutable m_prev_totals : int array;
  mutable m_prev_hists : Telemetry.hist array;
  mutable m_prev_flight : int;
  mutable m_prev_watchdog : int;
  mutable m_prev_pool_failures : int;
  mutable m_prev_chaos_fired : int;
  mutable m_scrapes : (int * Reactor.conn) list; (* deadline (ns), scrape *)
  mutable m_stopped : bool;
}

let sample st now =
  let snap = Telemetry.snapshot () in
  let totals = snap.Telemetry.totals in
  let deltas =
    Array.init Telemetry.Counter.count (fun i ->
        clamp0 (totals.(i) - st.m_prev_totals.(i)))
  in
  let hists =
    Array.init Telemetry.Hist.count (fun i ->
        delta_hist st.m_prev_hists.(i) snap.Telemetry.hists.(i))
  in
  let flight_total = Flight.recorded_total () in
  let watchdog = Atomic.get Health.watchdog_trips in
  let pool_failures = Atomic.get Health.pool_failures in
  let chaos_armed, chaos_fired =
    match get_chaos_probe () with
    | None -> (false, 0)
    | Some p -> ( try p () with _ -> (false, 0))
  in
  let w =
    {
      w_seq = st.m_seq;
      w_start_ns = st.m_prev_ts;
      w_end_ns = now;
      w_deltas = deltas;
      w_hists = hists;
      w_gauges = sample_gauges ();
      w_heat = heat_between ~lo:st.m_prev_ts ~hi:now;
      w_flight_events = clamp0 (flight_total - st.m_prev_flight);
      w_watchdog = clamp0 (watchdog - st.m_prev_watchdog);
      w_pool_failures = clamp0 (pool_failures - st.m_prev_pool_failures);
      w_chaos_armed = chaos_armed;
      w_chaos_fired = clamp0 (chaos_fired - st.m_prev_chaos_fired);
    }
  in
  st.m_ring.(st.m_seq mod st.m_window_count) <- Some w;
  st.m_latest <- Some w;
  st.m_seq <- st.m_seq + 1;
  st.m_prev_ts <- now;
  st.m_prev_totals <- Array.copy totals;
  st.m_prev_hists <- Array.copy snap.Telemetry.hists;
  st.m_prev_flight <- flight_total;
  st.m_prev_watchdog <- watchdog;
  st.m_prev_pool_failures <- pool_failures;
  st.m_prev_chaos_fired <- chaos_fired

(* ------------------------------------------------------------------ *)
(* Health evaluation                                                  *)
(* ------------------------------------------------------------------ *)

type health_view = {
  hv_status : string;
  hv_code : int;
  hv_level : int;  (* 0 ok / 1 degraded / 2 critical *)
  hv_reasons : string list;
}

(* Degradation is judged over the last [health_span] completed windows,
   not just the latest: a scraper polling slower than the sampling
   interval would otherwise miss every short-lived trip. *)
let health_span = 3

let health_of st =
  let reasons = ref [] in
  let level = ref 0 in
  let degrade r =
    level := max !level 1;
    reasons := r :: !reasons
  in
  let watchdog = ref 0 and failures = ref 0 and chaos = ref 0 in
  let chaos_armed = ref false in
  let span = min health_span (min st.m_seq st.m_window_count) in
  for i = 1 to span do
    match st.m_ring.((st.m_seq - i) mod st.m_window_count) with
    | None -> ()
    | Some w ->
      watchdog := !watchdog + w.w_watchdog;
      failures := !failures + w.w_pool_failures;
      chaos := !chaos + w.w_chaos_fired;
      if i = 1 then chaos_armed := w.w_chaos_armed
  done;
  if !watchdog > 0 then
    degrade
      (Printf.sprintf "%d pool watchdog trip(s) in the last %d window(s)"
         !watchdog span);
  if !failures > 0 then
    degrade
      (Printf.sprintf "%d contained pool failure(s) in the last %d window(s)"
         !failures span);
  if !chaos_armed && !chaos > 0 then
    degrade
      (Printf.sprintf
         "chaos drill firing (%d failpoint(s) in the last %d window(s))"
         !chaos span);
  let unc = Atomic.get Health.uncontained in
  if unc > 0 then begin
    level := 2;
    let why = Health.read_uncontained_reason () in
    reasons :=
      (Printf.sprintf "%d uncontained failure(s)%s" unc
         (if why = "" then "" else ": " ^ why))
      :: !reasons
  end;
  let status, code =
    match !level with
    | 0 -> ("ok", 200)
    | 1 -> ("degraded", 503)
    | _ -> ("critical", 503)
  in
  { hv_status = status; hv_code = code; hv_level = !level;
    hv_reasons = List.rev !reasons }

(* ------------------------------------------------------------------ *)
(* Endpoint bodies                                                    *)
(* ------------------------------------------------------------------ *)

let duration_s w =
  let d = float_of_int (w.w_end_ns - w.w_start_ns) /. 1e9 in
  if d <= 0.0 then 1e-9 else d

let heat_json heat =
  Telemetry.Json.List
    (List.map
       (fun (level, row) ->
         Telemetry.Json.Obj
           (("level", Telemetry.Json.Int level)
           :: Array.to_list
                (Array.mapi
                   (fun i c -> (Flight.heat_classes.(i), Telemetry.Json.Int c))
                   row)))
       heat)

let window_json w =
  let open Telemetry in
  let dur = duration_s w in
  let rates, deltas =
    List.fold_left
      (fun (rates, deltas) c ->
        let d = w.w_deltas.(Counter.index c) in
        if d = 0 then (rates, deltas)
        else
          let n = Counter.name c in
          ( (n ^ "_per_s", Json.Float (float_of_int d /. dur)) :: rates,
            (n, Json.Int d) :: deltas ))
      ([], []) Counter.all
  in
  let hists =
    List.filter_map
      (fun m ->
        let h = w.w_hists.(Hist.index m) in
        if h.h_total = 0 then None
        else
          Some
            ( Hist.name m,
              Json.Obj
                [
                  ("count", Json.Int h.h_total);
                  ("rate_per_s", Json.Float (float_of_int h.h_total /. dur));
                  ("mean_ns", Json.Float (hist_mean h));
                  ("p50_ns", Json.Int (hist_quantile h 0.5));
                  ("p99_ns", Json.Int (hist_quantile h 0.99));
                  ("max_ns", Json.Int h.h_max);
                ] ))
      Hist.all
  in
  Json.Obj
    [
      ("seq", Json.Int w.w_seq);
      ("start_ns", Json.Int w.w_start_ns);
      ("end_ns", Json.Int w.w_end_ns);
      ("duration_s", Json.Float dur);
      ("rates", Json.Obj (List.rev rates));
      ("deltas", Json.Obj (List.rev deltas));
      ("histograms", Json.Obj hists);
      ( "gauges",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) w.w_gauges) );
      ("heat", heat_json w.w_heat);
      ("flight_events", Json.Int w.w_flight_events);
      ( "health",
        Json.Obj
          [
            ("watchdog_trips", Json.Int w.w_watchdog);
            ("pool_failures", Json.Int w.w_pool_failures);
            ("chaos_armed", Json.Bool w.w_chaos_armed);
            ("chaos_fired", Json.Int w.w_chaos_fired);
          ] );
    ]

(* Newest-first compact summaries of the retained ring, for trend lines. *)
let recent_json st =
  let open Telemetry in
  let acc = ref [] in
  let retained = min st.m_seq st.m_window_count in
  for i = 1 to retained do
    match st.m_ring.((st.m_seq - i) mod st.m_window_count) with
    | None -> ()
    | Some w ->
      let delta_total = Array.fold_left ( + ) 0 w.w_deltas in
      acc :=
        Json.Obj
          [
            ("seq", Json.Int w.w_seq);
            ("end_ns", Json.Int w.w_end_ns);
            ("duration_s", Json.Float (duration_s w));
            ("counter_delta_total", Json.Int delta_total);
            ("flight_events", Json.Int w.w_flight_events);
          ]
        :: !acc
  done;
  Json.List (List.rev !acc)

let snapshot_body st =
  let open Telemetry in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "telemetry_window/1");
         ("interval_ms", Json.Int st.m_interval_ms);
         ("windows_retained", Json.Int (min st.m_seq st.m_window_count));
         ( "window",
           match st.m_latest with Some w -> window_json w | None -> Json.Null
         );
         ("recent", recent_json st);
       ])

let heat_body st =
  let open Telemetry in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "telemetry_heat/1");
         ("flight_enabled", Json.Bool (Flight.enabled ()));
         ( "classes",
           Json.List
             (Array.to_list
                (Array.map (fun c -> Json.String c) Flight.heat_classes)) );
         ( "window",
           match st.m_latest with
           | Some w -> heat_json w.w_heat
           | None -> Json.Null );
         ("ring", heat_json (heat_between ~lo:min_int ~hi:max_int));
       ])

let trace_limit = 256

let trace_body _st =
  let open Telemetry in
  let evs = Flight.events () in
  let total = List.length evs in
  let evs =
    if total <= trace_limit then evs
    else
      (* keep the newest [trace_limit] (events are oldest-first) *)
      List.filteri (fun i _ -> i >= total - trace_limit) evs
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "telemetry_trace/1");
         ("flight_enabled", Json.Bool (Flight.enabled ()));
         ("recorded_total", Json.Int (Flight.recorded_total ()));
         ("returned", Json.Int (List.length evs));
         ( "events",
           Json.List
             (List.map
                (fun (e : Flight.event) ->
                  Json.Obj
                    [
                      ("ts", Json.Int e.Flight.e_ts);
                      ("domain", Json.Int e.Flight.e_domain);
                      ("kind", Json.String (Flight.Ev.name e.Flight.e_kind));
                      ("a1", Json.Int e.Flight.e_a1);
                      ("a2", Json.Int e.Flight.e_a2);
                      ("a3", Json.Int e.Flight.e_a3);
                    ])
                evs) );
       ])

let health_body st =
  let open Telemetry in
  let hv = health_of st in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "telemetry_health/1");
         ("status", Json.String hv.hv_status);
         ("level", Json.Int hv.hv_level);
         ( "reasons",
           Json.List (List.map (fun r -> Json.String r) hv.hv_reasons) );
         ("uncontained_total", Json.Int (Atomic.get Health.uncontained));
         ("watchdog_trips_total", Json.Int (Atomic.get Health.watchdog_trips));
         ("pool_failures_total", Json.Int (Atomic.get Health.pool_failures));
         ("window_seq",
          match st.m_latest with Some w -> Json.Int w.w_seq | None -> Json.Null);
       ])

let metrics_body st =
  let open Telemetry in
  let prom = Prom.create () in
  let snap = Telemetry.snapshot () in
  prometheus_of_snapshot prom snap;
  let hv = health_of st in
  Prom.gauge prom
    ~help:"Service health: 0 = ok, 1 = degraded, 2 = critical."
    "repro_health" (float_of_int hv.hv_level);
  (match st.m_latest with
  | None -> ()
  | Some w ->
    let dur = duration_s w in
    Prom.gauge prom ~help:"Sampling window sequence number (monotonic)."
      "repro_window_seq" (float_of_int w.w_seq);
    Prom.gauge prom ~help:"Sampling window length in seconds."
      "repro_window_duration_seconds" dur;
    Prom.gauge prom ~help:"Flight events recorded in the window."
      "repro_window_flight_events" (float_of_int w.w_flight_events);
    List.iter
      (fun c ->
        let d = w.w_deltas.(Counter.index c) in
        if d > 0 then
          Prom.gauge prom
            ~help:
              "Per-window counter rate (events/s; nanosecond counters in \
               ns/s)."
            ~labels:[ ("counter", Counter.name c) ]
            "repro_window_rate"
            (float_of_int d /. dur))
      Counter.all;
    List.iter
      (fun m ->
        let h = w.w_hists.(Hist.index m) in
        if h.h_total > 0 then begin
          let labels = [ ("hist", Hist.name m) ] in
          Prom.gauge prom ~help:"Samples recorded in the window." ~labels
            "repro_window_hist_count" (float_of_int h.h_total);
          Prom.gauge prom ~help:"Window p50 latency estimate (ns)." ~labels
            "repro_window_p50_ns"
            (float_of_int (hist_quantile h 0.5));
          Prom.gauge prom ~help:"Window p99 latency estimate (ns)." ~labels
            "repro_window_p99_ns"
            (float_of_int (hist_quantile h 0.99));
          Prom.gauge prom ~help:"Window max latency estimate (ns)." ~labels
            "repro_window_max_ns" (float_of_int h.h_max)
        end)
      Hist.all;
    List.iter
      (fun (n, v) ->
        Prom.gauge prom ~help:"Registered gauge provider value."
          ~labels:[ ("gauge", n) ] "repro_gauge" v)
      w.w_gauges;
    List.iter
      (fun (level, row) ->
        Array.iteri
          (fun i c ->
            if c > 0 then
              Prom.gauge prom
                ~help:"Window flight contention heat per tree level."
                ~labels:
                  [
                    ("level", string_of_int level);
                    ("class", Flight.heat_classes.(i));
                  ]
                "repro_window_heat" (float_of_int c))
          row)
      w.w_heat);
  Prom.to_string prom

let index_body _st =
  let open Telemetry in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "telemetry_index/1");
         ( "endpoints",
           Json.List
             (List.map
                (fun e -> Json.String e)
                [ "/metrics"; "/snapshot.json"; "/heat"; "/health"; "/trace" ])
         );
       ])

(* ------------------------------------------------------------------ *)
(* HTTP/1.0 over the reactor                                          *)
(* ------------------------------------------------------------------ *)

(* A scrape gets this long to send its request and read the answer. *)
let scrape_timeout_ns = 2_000_000_000

let respond c (status, content_type, body) =
  let reason =
    match status with
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  Reactor.send c
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       status reason content_type (String.length body) body);
  Reactor.close_after_flush c

(* The path of a GET/HEAD request line, query string dropped. *)
let parse_request line =
  match String.split_on_char ' ' line with
  | meth :: path :: _ when meth = "GET" || meth = "HEAD" -> (
    match String.index_opt path '?' with
    | Some q -> Some (String.sub path 0 q)
    | None -> Some path)
  | _ -> None

let json = "application/json"

let route st path =
  match path with
  | "/metrics" -> (200, "text/plain; version=0.0.4", metrics_body st)
  | "/snapshot.json" -> (200, json, snapshot_body st)
  | "/heat" -> (200, json, heat_body st)
  | "/trace" -> (200, json, trace_body st)
  | "/health" -> ((health_of st).hv_code, json, health_body st)
  | "/" | "/index.json" -> (200, json, index_body st)
  | _ ->
    ( 404,
      json,
      Telemetry.Json.to_string
        (Telemetry.Json.Obj
           [ ("error", Telemetry.Json.String ("no such endpoint: " ^ path)) ]) )

(* HTTP/1.0 as a line handler: the request line, headers up to the blank
   line, then the answer, closed once flushed. *)
let scrape st c =
  let deadline = Telemetry.now_ns () + scrape_timeout_ns in
  st.m_scrapes <- (deadline, c) :: st.m_scrapes;
  let path = ref None in
  let bad () = respond c (400, "text/plain", "bad request\n") in
  {
    Reactor.line =
      (fun line ->
        match !path with
        | None -> (
          match parse_request line with
          | Some p -> path := Some p
          | None -> bad ())
        | Some p -> if line = "" then respond c (route st p));
    overlong = bad;
    ready = ignore;
    closed =
      (fun () ->
        st.m_scrapes <- List.filter (fun (_, o) -> o != c) st.m_scrapes);
  }

let init_mstate ~interval_ms ~window_count =
  let snap = Telemetry.snapshot () in
  let now = Telemetry.now_ns () in
  {
    m_interval_ms = interval_ms;
    m_interval_ns = interval_ms * 1_000_000;
    m_window_count = window_count;
    m_ring = Array.make window_count None;
    m_latest = None;
    m_seq = 0;
    m_next_tick = now + (interval_ms * 1_000_000);
    m_prev_ts = now;
    m_prev_totals = Array.copy snap.Telemetry.totals;
    m_prev_hists = Array.copy snap.Telemetry.hists;
    m_prev_flight = Flight.recorded_total ();
    m_prev_watchdog = Atomic.get Health.watchdog_trips;
    m_prev_pool_failures = Atomic.get Health.pool_failures;
    m_prev_chaos_fired =
      (match get_chaos_probe () with
      | None -> 0
      | Some p -> ( try snd (p ()) with _ -> 0));
    m_scrapes = [];
    m_stopped = false;
  }

let hooks ~interval_ms ~window_count () =
  let st = init_mstate ~interval_ms ~window_count in
  {
    Reactor.accept =
      (fun ~full c ->
        if full then Error "HTTP/1.0 503 Service Unavailable\r\n\r\n"
        else Ok (scrape st c));
    (* sample when due; close the scrapes past their deadline *)
    tick =
      (fun _ ->
        let now = Telemetry.now_ns () in
        if now >= st.m_next_tick then begin
          sample st now;
          st.m_next_tick <- now + st.m_interval_ns
        end;
        List.iter (fun (d, c) -> if now >= d then Reactor.close c) st.m_scrapes;
        let wake =
          List.fold_left (fun acc (d, _) -> Int.min acc d) st.m_next_tick
            st.m_scrapes
        in
        let left = wake - Telemetry.now_ns () in
        if st.m_stopped then None
        else Some (Float.max 0.0 (float_of_int left /. 1e9)));
    stop = (fun () -> st.m_stopped <- true);
    (* final window so even short runs retire at least one sample *)
    finish = (fun () -> sample st (Telemetry.now_ns ()));
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

type t = { t_addr : addr; t_reactor : Reactor.t }

let bind_listen addr =
  match addr with
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
       Unix.listen fd 64;
       let bound =
         match Unix.getsockname fd with
         | Unix.ADDR_INET (_, p) -> Tcp (host, p)
         | _ -> addr
       in
       (fd, bound, None)
     with e ->
       (try Unix.close fd with _ -> ());
       raise e)
  | Unix_sock path ->
    (* a stale socket file from a crashed run would make bind fail *)
    (try if Sys.file_exists path then Unix.unlink path with _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64;
       (fd, addr, Some path)
     with e ->
       (try Unix.close fd with _ -> ());
       raise e)

let start ?(interval_ms = 1000) ?(window_count = 64) addr =
  let interval_ms = max 10 interval_ms in
  let window_count = max 2 window_count in
  match bind_listen addr with
  | exception e ->
    Error
      (Printf.sprintf "telemetry server: cannot bind %s: %s"
         (addr_to_string addr) (Printexc.to_string e))
  | lfd, bound, unlink ->
    Ok
      {
        t_addr = bound;
        t_reactor =
          Reactor.start ?unlink ~max_conns:64 ~max_line:16384 lfd
            (hooks ~interval_ms ~window_count);
      }

let bound t = t.t_addr
let stop t =
  Reactor.signal_stop t.t_reactor;
  Reactor.wait t.t_reactor

(* ------------------------------------------------------------------ *)
(* Tiny HTTP/1.0 client (tests / tooling)                              *)
(* ------------------------------------------------------------------ *)

let fetch addr path =
  let mk () =
    match addr with
    | Tcp (host, port) ->
      ( Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (resolve_host host, port) )
    | Unix_sock p ->
      (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0,
       Unix.ADDR_UNIX p)
  in
  match mk () with
  | exception e -> Error (Printexc.to_string e)
  | fd, sa ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
          Unix.connect fd sa;
          let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
          let len = String.length req in
          if Unix.write_substring fd req 0 len < len then
            failwith "short request write";
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ();
          let raw = Buffer.contents buf in
          let code =
            match String.split_on_char ' ' raw with
            | _http :: code :: _ -> ( try int_of_string code with _ -> 0)
            | _ -> 0
          in
          let body =
            let rec find i =
              if i + 3 >= String.length raw then None
              else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
              else find (i + 1)
            in
            match find 0 with
            | Some i -> String.sub raw i (String.length raw - i)
            | None -> ""
          in
          if code = 0 then Error ("bad response: " ^ raw)
          else Ok (code, body)
        with e -> Error (Printexc.to_string e))
