(* serve_bench — the datalog_serve benchmark.

     serve_bench --server PATH --workload point_query --seed 1 --seconds 15 --trace 0

   Spawns datalog_serve children, drives one workload against them and
   prints a human summary on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ledger plus the tracing overhead.  Exits 1 (and
   prints no result) when a server fails to start or a protocol step
   fails outright. *)

module J = Telemetry.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: serve_bench --server PATH --workload NAME --seed N --seconds S \
     --trace 0|1 [--tmp DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let kind =
    match Workload.of_name (get "workload") with Some k -> k | None -> usage ()
  in
  let exe = get "server" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" = 1 in
  let tmp =
    Option.value ~default:(Filename.concat ".perfbench" (string_of_int (Unix.getpid ())))
      (List.assoc_opt "tmp" opts)
  in
  if seconds < 1 then usage ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  at_exit (fun () ->
      Child.reap_all ();
      Child.rm_rf tmp);
  let env =
    { Bench.exe; tmp; seed; seconds = float_of_int seconds;
      log = (fun m -> prerr_endline ("serve_bench: " ^ m)) }
  in
  let cfg = Workload.full kind in
  match
    let untraced = Bench.pass env cfg ~traced:false in
    if not trace then (Bench.e2e untraced, untraced, [], true)
    else
      let traced = Bench.pass env cfg ~traced:true in
      let m, ledger_ok = Bench.per_layer env cfg untraced traced in
      ( m,
        { traced with
          Bench.attempted = traced.Bench.attempted + untraced.Bench.attempted;
          failed = traced.Bench.failed + untraced.Bench.failed;
          why = traced.Bench.why @ untraced.Bench.why },
        Bench.invalid untraced,
        ledger_ok )
  with
  | exception (Bench.Bad m | Child.Start_failed m) ->
    Printf.eprintf "serve_bench: %s: %s\n%!" (Workload.name kind) m;
    exit 1
  | exception e ->
    Printf.eprintf "serve_bench: %s: %s\n%!" (Workload.name kind)
      (Printexc.to_string e);
    exit 1
  | metrics, p, extra_invalid, ledger_ok ->
    let invalid =
      List.sort_uniq compare (Bench.invalid p @ extra_invalid)
      @ (if ledger_ok then [] else [ "ledger spans do not sum to their parents" ])
      @ List.filter_map
          (fun (n, v, _) ->
            if Float.is_finite v then None else Some (n ^ " is not a number"))
          metrics
    in
    List.iter
      (fun (n, v, u) -> Printf.eprintf "  %-34s %14.4f %s\n" n v u)
      metrics;
    Printf.eprintf "  %-34s %14.4f ms (validity, limit %.0f)\n" "gen_late_p99_ms"
      (Bench.gen_late_p99 p) Bench.late_limit_ms;
    Printf.eprintf "  attempted %d, failed %d\n" p.Bench.attempted p.Bench.failed;
    List.iteri
      (fun i w -> if i < 10 then Printf.eprintf "  failed: %s\n" w)
      p.Bench.why;
    List.iter (fun w -> Printf.eprintf "  invalid run: %s\n" w) invalid;
    let correct = p.Bench.failed = 0 && invalid = [] in
    let num v = if Float.is_finite v then J.Float v else J.Float 0. in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", J.Int (max 1 p.Bench.attempted));
              ("failed", J.Int p.Bench.failed);
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (n, v, u) ->
                       (n, J.Obj [ ("value", num v); ("unit", J.String u) ]))
                     metrics) );
            ]));
    exit 0
