(* Flight-recorder dump inspector.

   Loads a crash dump ([crashdump-<seed>.json], written by the bench /
   stress / datalog_cli failure handlers) or a live Chrome trace
   (--trace output, whose cat:"flight" instants are recorder events) and
   prints what the rings captured: the per-level contention table with
   the hottest tree level, a merged cross-domain event timeline, and a
   GC-overlap summary attributing contention events to collection
   pauses. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Loading: crash dump or Chrome trace                                *)
(* ------------------------------------------------------------------ *)

type source = {
  src_kind : string; (* "crash dump" | "chrome trace" *)
  src_reason : string option;
  src_seed : int option;
  src_counters : (string * Telemetry.Json.t) list;
  src_dropped : (int * int) list; (* per-domain dropped counts, if known *)
  src_events : Flight.event list; (* merged, oldest first *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source_of_dump (d : Flight.dump) =
  {
    src_kind = "crash dump";
    src_reason = Some d.Flight.d_reason;
    src_seed = Some d.Flight.d_seed;
    src_counters = d.Flight.d_counters;
    src_dropped =
      List.map (fun (dom, dropped, _) -> (dom, dropped)) d.Flight.d_domains;
    src_events = Flight.dump_events d;
  }

(* Reconstruct recorder events from a Chrome trace: the flight provider
   exports them as 'i' instants with cat "flight" and us-float
   timestamps. *)
let source_of_trace j =
  let open Telemetry.Json in
  let events =
    match member "traceEvents" j with
    | Some (List evs) -> evs
    | _ -> []
  in
  let flight_events =
    List.filter_map
      (fun ev ->
        match (member "cat" ev, member "name" ev) with
        | Some (String "flight"), Some (String name) -> (
          match Flight.Ev.of_name name with
          | None -> None
          | Some kind ->
            let int_of k obj =
              match member k obj with Some (Int i) -> i | _ -> 0
            in
            let ts =
              match member "ts" ev with
              | Some (Float us) -> int_of_float (us *. 1000.0)
              | Some (Int us) -> us * 1000
              | _ -> 0
            in
            let a1, a2, a3 =
              match member "args" ev with
              | Some (Obj _ as args) ->
                (int_of "a1" args, int_of "a2" args, int_of "a3" args)
              | _ -> (0, 0, 0)
            in
            Some
              {
                Flight.e_domain = int_of "tid" ev;
                e_ts = ts;
                e_kind = kind;
                e_a1 = a1;
                e_a2 = a2;
                e_a3 = a3;
              })
        | _ -> None)
      events
  in
  {
    src_kind = "chrome trace";
    src_reason = None;
    src_seed = None;
    src_counters =
      (match member "otherData" j with Some (Obj kvs) -> kvs | _ -> []);
    src_dropped = [];
    src_events =
      List.sort
        (fun a b -> compare a.Flight.e_ts b.Flight.e_ts)
        flight_events;
  }

let load path =
  let* text =
    try Ok (read_file path)
    with Sys_error m -> Error (Printf.sprintf "cannot read %s: %s" path m)
  in
  let* j =
    try Ok (Telemetry.Json.of_string text)
    with Telemetry.Json.Parse_error m ->
      Error (Printf.sprintf "%s: malformed JSON: %s" path m)
  in
  match Telemetry.Json.member "crashdump" j with
  | Some _ -> (
    try Ok (source_of_dump (Flight.dump_of_json j))
    with Flight.Bad_dump m -> Error (Printf.sprintf "%s: %s" path m))
  | None -> (
    match Telemetry.Json.member "traceEvents" j with
    | Some _ -> Ok (source_of_trace j)
    | None ->
      Error
        (Printf.sprintf
           "%s: neither a crash dump (no \"crashdump\" field) nor a Chrome \
            trace (no \"traceEvents\")"
           path))

(* ------------------------------------------------------------------ *)
(* Report sections                                                    *)
(* ------------------------------------------------------------------ *)

let print_header path src =
  Printf.printf "%s: %s, %d events across %d domain(s)\n" path src.src_kind
    (List.length src.src_events)
    (List.length
       (List.sort_uniq compare
          (List.map (fun e -> e.Flight.e_domain) src.src_events)));
  (match src.src_reason with
  | Some r -> Printf.printf "reason: %s\n" r
  | None -> ());
  (match src.src_seed with
  | Some s -> Printf.printf "seed: %d\n" s
  | None -> ());
  List.iter
    (fun (dom, dropped) ->
      if dropped > 0 then
        Printf.printf "domain %d: %d event(s) dropped by ring wraparound\n"
          dom dropped)
    src.src_dropped;
  let interesting = function
    | Telemetry.Json.Int 0 | Telemetry.Json.Float 0.0 -> false
    | _ -> true
  in
  let nonzero = List.filter (fun (_, v) -> interesting v) src.src_counters in
  if nonzero <> [] then begin
    Printf.printf "counters:\n";
    List.iter
      (fun (k, v) ->
        match v with
        | Telemetry.Json.Int i -> Printf.printf "  %-32s %d\n" k i
        | Telemetry.Json.Float f -> Printf.printf "  %-32s %.6f\n" k f
        | _ -> ())
      nonzero
  end

let print_heat src =
  let heat = Flight.heat_of_events src.src_events in
  Format.printf "@.%a@." Flight.pp_heat heat

let describe (e : Flight.event) =
  let open Flight in
  let node () =
    if e.e_a1 < 0 then "hinted leaf"
    else Printf.sprintf "level %d, bucket %d" e.e_a1 e.e_a2
  in
  match e.e_kind with
  | Ev.Validation_fail -> Printf.sprintf "validation failed (%s)" (node ())
  | Ev.Upgrade_fail -> Printf.sprintf "upgrade lost (%s)" (node ())
  | Ev.Restart -> Printf.sprintf "restart from root (attempt %d)" e.e_a1
  | Ev.Fallback ->
    Printf.sprintf "pessimistic fallback after %d attempts" e.e_a1
  | Ev.Lock_wait ->
    Printf.sprintf "contended write lock (waited %.3f us)"
      (float_of_int e.e_a1 /. 1e3)
  | Ev.Split -> Printf.sprintf "split (%s)" (node ())
  | Ev.Phase -> Printf.sprintf "phase %s" (Flight.phase_name e.e_a1)
  | Ev.Pool_job_start -> Printf.sprintf "pool job start (%d workers)" e.e_a1
  | Ev.Pool_job_end ->
    Printf.sprintf "pool job end (%.3f ms)" (float_of_int e.e_a1 /. 1e6)
  | Ev.Watchdog ->
    Printf.sprintf "watchdog trip (%d ms wall, %d ms deadline)" e.e_a1 e.e_a2
  | Ev.Chaos_fire ->
    let name =
      match List.nth_opt Chaos.Point.all e.e_a1 with
      | Some p -> Chaos.Point.name p
      | None -> Printf.sprintf "point#%d" e.e_a1
    in
    Printf.sprintf "chaos fired: %s" name
  | Ev.Gc_major ->
    Printf.sprintf "gc major cycle end (majors=%d minors=%d)" e.e_a1 e.e_a2

let print_timeline src last_n =
  match src.src_events with
  | [] -> print_endline "timeline: no events"
  | evs ->
    let total = List.length evs in
    let skip = max 0 (total - last_n) in
    let t0 = (List.hd evs).Flight.e_ts in
    Printf.printf "\ntimeline (%s%d events):\n"
      (if skip > 0 then Printf.sprintf "last %d of " last_n else "")
      total;
    List.iteri
      (fun i e ->
        if i >= skip then
          Printf.printf "  +%10.3f ms  d%-2d %s\n"
            (float_of_int (e.Flight.e_ts - t0) /. 1e6)
            e.Flight.e_domain (describe e))
      evs

(* Contention events within [window_ns] of a GC major-cycle end on the
   same domain are "GC-adjacent": a collection pause is the likely cause
   of the dead lease or the long wait. *)
let print_gc_overlap src =
  let window_ns = 1_000_000 in
  let contention = function
    | Flight.Ev.Validation_fail | Flight.Ev.Upgrade_fail
    | Flight.Ev.Lock_wait | Flight.Ev.Restart | Flight.Ev.Fallback ->
      true
    | _ -> false
  in
  let gcs =
    List.filter (fun e -> e.Flight.e_kind = Flight.Ev.Gc_major) src.src_events
  in
  let contention_events =
    List.filter (fun e -> contention e.Flight.e_kind) src.src_events
  in
  if gcs = [] then
    Printf.printf "\ngc overlap: no gc major-cycle events recorded\n"
  else begin
    let adjacent =
      List.filter
        (fun e ->
          List.exists
            (fun g -> abs (g.Flight.e_ts - e.Flight.e_ts) <= window_ns)
            gcs)
        contention_events
    in
    Printf.printf
      "\ngc overlap: %d major-cycle end(s); %d of %d contention event(s) \
       within %.1f ms of one\n"
      (List.length gcs) (List.length adjacent)
      (List.length contention_events)
      (float_of_int window_ns /. 1e6);
    List.iteri
      (fun i g ->
        if i < 8 then
          let near =
            List.length
              (List.filter
                 (fun e ->
                   abs (g.Flight.e_ts - e.Flight.e_ts) <= window_ns)
                 contention_events)
          in
          Printf.printf
            "  gc on d%d (majors=%d): %d contention event(s) nearby\n"
            g.Flight.e_domain g.Flight.e_a1 near)
      gcs
  end

let inspect path last_n =
  match load path with
  | Error m ->
    prerr_endline ("flightrec: " ^ m);
    1
  | Ok src ->
    print_header path src;
    print_heat src;
    print_timeline src last_n;
    print_gc_overlap src;
    0

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Crash dump (crashdump-<seed>.json) or Chrome trace (--trace \
           output) to inspect.")

let last_arg =
  Arg.(
    value & opt int 40
    & info [ "last"; "n" ] ~docv:"N"
        ~doc:"Show only the last $(docv) timeline events (default 40).")

let cmd =
  let doc = "inspect flight-recorder crash dumps and traces" in
  Cmd.v (Cmd.info "flightrec" ~doc) Term.(const inspect $ file_arg $ last_arg)

let () = exit (Cmd.eval' cmd)
