(* Command-line Datalog runner: evaluate a .dl file with a chosen relation
   storage and thread count, print output relation sizes or contents.

     datalog_cli run program.dl --storage btree --threads 4 --print path
*)

open Cmdliner

let write_prometheus engine snap path =
  let prom = Telemetry.Prom.create () in
  Telemetry.prometheus_of_snapshot prom snap;
  List.iter
    (fun (rel, sh) ->
      let labels = [ ("relation", rel) ] in
      let g ~help name v = Telemetry.Prom.gauge prom ~help ~labels name v in
      g ~help:"B-tree height of a relation's primary index."
        "repro_btree_shape_height"
        (float_of_int sh.Tree_shape.height);
      g ~help:"B-tree node count of a relation's primary index."
        "repro_btree_shape_nodes"
        (float_of_int sh.Tree_shape.nodes);
      g ~help:"B-tree leaf count of a relation's primary index."
        "repro_btree_shape_leaves"
        (float_of_int sh.Tree_shape.leaves);
      g ~help:"Elements stored in a relation's primary index."
        "repro_btree_shape_elements"
        (float_of_int sh.Tree_shape.elements);
      g ~help:"Average node fill factor of a relation's primary index."
        "repro_btree_shape_fill" sh.Tree_shape.fill;
      Array.iteri
        (fun d n ->
          if n > 0 then
            Telemetry.Prom.gauge prom
              ~help:"Nodes per 10%-of-capacity fill band."
              ~labels:(("decile", string_of_int d) :: labels)
              "repro_btree_shape_fill_nodes" (float_of_int n))
        sh.Tree_shape.fill_deciles)
    (Engine.tree_shapes engine);
  (match Engine.hint_run_hist engine with
  | Some runs ->
    Array.iteri
      (fun b n ->
        if n > 0 then
          Telemetry.Prom.gauge prom
            ~help:"Hint hit-run lengths (log2 buckets)."
            ~labels:[ ("bucket", string_of_int b) ]
            "repro_btree_hint_runs" (float_of_int n))
      runs
  | None -> ());
  (* Contention heatmap from the flight recorder, when it ran. *)
  (if Flight.enabled () then
     let heat = Flight.heat_of_events (Flight.events ()) in
     List.iter
       (fun ((level, bucket), counts) ->
         Array.iteri
           (fun cls n ->
             if n > 0 then
               Telemetry.Prom.counter prom
                 ~help:
                   "Flight-recorder contention events by tree level and \
                    root-child key bucket (level/bucket -1 = hinted leaf)."
                 ~labels:
                   [
                     ("class", Flight.heat_classes.(cls));
                     ("level", string_of_int level);
                     ("bucket", string_of_int bucket);
                   ]
                 "repro_contention_events_total" (float_of_int n))
           counts)
       heat.Flight.heat_cells;
     Telemetry.Prom.counter prom
       ~help:"Flight-recorder root restarts (untagged)."
       "repro_contention_restarts_total"
       (float_of_int heat.Flight.heat_restarts);
     Telemetry.Prom.counter prom
       ~help:"Flight-recorder pessimistic fallbacks (untagged)."
       "repro_contention_fallbacks_total"
       (float_of_int heat.Flight.heat_fallbacks);
     Telemetry.Prom.counter prom
       ~help:"Summed contended write-lock wait observed by the recorder."
       "repro_contention_lock_wait_seconds_total"
       (float_of_int heat.Flight.heat_lock_wait_ns /. 1e9));
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Telemetry.Prom.to_string prom))

(* ------------------------------------------------------------------- *)
(* Remote mode (--connect): drive a resident datalog_serve instance     *)
(* through the Dl_client line protocol instead of evaluating locally.   *)
(* ------------------------------------------------------------------- *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remote_fail ctx = function
  | Error m ->
    Printf.eprintf "datalog_cli: %s: %s\n" ctx m;
    exit 1
  | Ok (Dl_client.Err (code, msg)) ->
    Printf.eprintf "datalog_cli: %s: ERR %s %s\n" ctx code msg;
    exit 1
  | Ok r -> r

let run_remote addr_s file facts_dir print_rels output_dir do_shutdown =
  match Telemetry_server.parse_addr addr_s with
  | Error m ->
    Printf.eprintf "--connect: %s\n" m;
    exit 2
  | Ok addr ->
    (* A retry session instead of one connect: transient connection faults
       (server restarting after a crash-recover, socket hiccup) are retried
       with backoff; structured ERR replies still fail fast. *)
    Dl_client.with_retry ~attempts:5 ~backoff_ms:50.0 addr @@ fun sess ->
    let rpc ctx f = remote_fail ctx (Dl_client.retry sess f) in
    (match file with
      | None ->
        if not do_shutdown then begin
          Printf.eprintf
            "datalog_cli: --connect needs a program (or --shutdown)\n";
          exit 2
        end
      | Some f ->
        (* Parse locally too: the decls give us the output relations and
           their arities for the wildcard queries below. *)
        let prog =
          match Parser.parse_file f with
          | p -> p
          | exception Parser.Syntax_error { line; col; message } ->
            Printf.eprintf "%s:%d:%d: syntax error: %s\n" f line col message;
            exit 1
        in
        (match rpc "RULES" (fun c -> Dl_client.rules c (read_whole_file f)) with
        | Dl_client.Ok_ info -> Printf.printf "installed: %s\n" info
        | _ ->
          Printf.eprintf "datalog_cli: RULES: unexpected reply\n";
          exit 1);
        (match facts_dir with
        | None -> ()
        | Some dir ->
          let entries = Sys.readdir dir in
          Array.sort compare entries;
          Array.iter
            (fun entry ->
              match Filename.chop_suffix_opt ~suffix:".facts" entry with
              | None -> ()
              | Some rel ->
                let rows =
                  read_whole_file (Filename.concat dir entry)
                  |> String.split_on_char '\n'
                  |> List.filter (fun l -> String.trim l <> "")
                in
                (match
                   rpc ("LOAD " ^ rel) (fun c -> Dl_client.load c rel rows)
                 with
                | Dl_client.Ok_ info ->
                  Printf.printf "loaded %d facts into %s (%s)\n"
                    (List.length rows) rel info
                | _ ->
                  Printf.eprintf "datalog_cli: LOAD: unexpected reply\n";
                  exit 1))
            entries);
        let outputs =
          match
            List.filter (fun d -> d.Ast.is_output) prog.Ast.decls
          with
          | [] -> prog.Ast.decls
          | l -> l
        in
        List.iter
          (fun (d : Ast.decl) ->
            let pats = List.init d.Ast.arity (fun _ -> "_") in
            match
              rpc ("QUERY " ^ d.Ast.name) (fun c ->
                  Dl_client.query c d.Ast.name pats)
            with
            | Dl_client.Data (_, rows) ->
              Printf.printf "%s: %d tuples\n" d.Ast.name (List.length rows);
              if List.mem d.Ast.name print_rels then begin
                Printf.printf "--- %s ---\n" d.Ast.name;
                List.iter print_endline rows
              end;
              (match output_dir with
              | None -> ()
              | Some dir ->
                let path = Filename.concat dir (d.Ast.name ^ ".csv") in
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    List.iter
                      (fun row ->
                        output_string oc row;
                        output_char oc '\n')
                      rows);
                Printf.printf "wrote %d tuples to %s\n" (List.length rows)
                  path)
            | _ ->
              Printf.eprintf "datalog_cli: QUERY: unexpected reply\n";
              exit 1)
          outputs);
      if do_shutdown then
        match rpc "SHUTDOWN" Dl_client.shutdown with
        | Dl_client.Ok_ _ -> Printf.printf "server draining\n"
        | _ ->
          Printf.eprintf "datalog_cli: SHUTDOWN: unexpected reply\n";
          exit 1

let run_program file storage threads print_rels show_stats show_profile facts_dir output_dir trace_file metrics_file chaos_spec flight lenient serve_metrics serve_interval connect do_shutdown =
  let server =
    Obs_cli.setup ~chaos:chaos_spec ~flight ~serve_metrics ~serve_interval ()
  in
  Fun.protect ~finally:(fun () -> Obs_cli.teardown server) @@ fun () ->
  match connect with
  | Some addr_s ->
    run_remote addr_s file facts_dir print_rels output_dir do_shutdown
  | None -> (
  let file =
    match file with
    | Some f -> f
    | None ->
      Printf.eprintf "datalog_cli: a PROGRAM.dl argument is required\n";
      exit 2
  in
  match Storage.kind_of_name storage with
  | None ->
    Printf.eprintf "unknown storage kind %S (try: %s)\n" storage
      Storage.kind_choices;
    exit 2
  | Some kind -> (
    match Parser.parse_file file with
    | exception Parser.Syntax_error { line; col; message } ->
      Printf.eprintf "%s:%d:%d: syntax error: %s\n" file line col message;
      exit 1
    | prog -> (
      match Engine.create ~kind ~instrument:show_stats ~profile:show_profile prog with
      | exception Plan.Compile_error m ->
        Printf.eprintf "%s: compile error: %s\n" file m;
        exit 1
      | exception Stratify.Not_stratifiable m ->
        Printf.eprintf "%s: not stratifiable: %s\n" file m;
        exit 1
      | engine ->
        (* Telemetry: counters whenever --stats or --metrics is on, tracing
           when a --trace file was requested; the three combine freely.
           Enabled before fact loading so lenient-mode skip counts land in
           the snapshot. *)
        if show_stats || trace_file <> None || metrics_file <> None then
          Telemetry.enable ~tracing:(trace_file <> None) ();
        (* Live gauges for the scrape windows: Dl_stats are Sync counters,
           so reading them mid-evaluation is safe (no tree traversal). *)
        if server <> None && show_stats then
          Telemetry_server.register_gauges "datalog" (fun () ->
              match Engine.stats engine with
              | None -> []
              | Some s ->
                [
                  ("inserts", float_of_int s.Dl_stats.s_inserts);
                  ("mem_tests", float_of_int s.Dl_stats.s_mem_tests);
                  ("produced_tuples", float_of_int s.Dl_stats.s_produced_tuples);
                  ("input_tuples", float_of_int s.Dl_stats.s_input_tuples);
                ]);
        (match facts_dir with
        | Some dir -> (
          match Dl_io.load_facts_dir ~lenient engine dir with
          | loaded ->
            List.iter
              (fun (rel, n) -> Printf.printf "loaded %d facts into %s\n" n rel)
              loaded
          | exception (Dl_io.Parse_error _ as e) ->
            Printf.eprintf "%s\n" (Printexc.to_string e);
            exit 1)
        | None -> ());
        let t0 = Bench_util.wall () in
        (* Post-mortem evidence: a pool failure, watchdog-flagged job or any
           uncaught exception drains the flight rings into a crash dump
           before the error propagates. *)
        (try Pool.with_pool threads (fun pool -> Engine.run engine pool)
         with e when Flight.enabled () ->
           let path =
             Obs_cli.crash_dump
               ~extra:
                 [
                   ("program", Telemetry.Json.String file);
                   ("chaos", Telemetry.Json.Bool (Chaos.active ()));
                 ]
               e
           in
           Printf.eprintf "flight recorder: wrote %s (inspect with flightrec)\n"
             path;
           raise e);
        let elapsed = Bench_util.wall () -. t0 in
        let telemetry_snap =
          if Telemetry.enabled () then Some (Telemetry.snapshot ()) else None
        in
        (match trace_file with
        | Some f -> (
          match
            Telemetry.export_trace
              ~process_name:
                (Printf.sprintf "datalog_cli %s" (Filename.basename file))
              f
          with
          | () ->
            Printf.printf
              "wrote %d trace events to %s (open in ui.perfetto.dev)\n"
              (Telemetry.event_count ()) f
          | exception Sys_error m ->
            Printf.eprintf "cannot write trace: %s\n" m;
            exit 1)
        | None -> ());
        (match (metrics_file, telemetry_snap) with
        | Some f, Some snap -> (
          match write_prometheus engine snap f with
          | () -> Printf.printf "wrote Prometheus metrics to %s\n" f
          | exception Sys_error m ->
            Printf.eprintf "cannot write metrics: %s\n" m;
            exit 1)
        | _ -> ());
        Telemetry.disable ();
        let outputs =
          match Engine.output_relations engine with
          | [] -> Engine.relations engine
          | l -> l
        in
        List.iter
          (fun name ->
            Printf.printf "%s: %d tuples\n" name (Engine.relation_size engine name))
          outputs;
        List.iter
          (fun name ->
            Printf.printf "--- %s ---\n" name;
            Engine.iter_relation engine name (fun tup ->
                print_endline
                  (String.concat "\t"
                     (Array.to_list (Array.map string_of_int tup)))))
          print_rels;
        (match output_dir with
        | Some dir ->
          List.iter
            (fun (rel, n) ->
              Printf.printf "wrote %d tuples to %s\n" n
                (Filename.concat dir (rel ^ ".csv")))
            (Dl_io.write_outputs engine ~dir)
        | None -> ());
        if show_stats then begin
          (match Engine.stats engine with
          | Some s -> Format.printf "stats: %a@." Dl_stats.pp s
          | None -> ());
          (match telemetry_snap with
          | Some snap -> Format.printf "%a@." Telemetry.pp_snapshot snap
          | None -> ());
          (match Engine.tree_shapes engine with
          | [] -> ()
          | shapes ->
            Format.printf "tree shape (primary indexes):@.";
            List.iter
              (fun (rel, sh) ->
                Format.printf "  %-14s %a@." rel Tree_shape.pp sh)
              shapes);
          (match Engine.hint_run_hist engine with
          | Some runs when Array.exists (fun n -> n > 0) runs ->
            Format.printf
              "hint locality (hit-run lengths, log2 buckets): [%s]@."
              (String.concat " "
                 (Array.to_list (Array.map string_of_int runs)))
          | _ -> ());
          if Flight.enabled () then
            Format.printf "contention heatmap (flight recorder):@.%a@."
              Flight.pp_heat
              (Flight.heat_of_events (Flight.events ()))
        end;
        if Chaos.active () then
          Format.printf "%a@." Chaos.pp_fired ();
        if show_profile then begin
          print_endline "rule profile (hottest first):";
          List.iter
            (fun (p : Eval.rule_profile) ->
              Printf.printf "  %8.3fs  %4d evals  %s%s\n" p.Eval.rp_seconds
                p.Eval.rp_evaluations
                (if p.Eval.rp_delta then "[delta] " else "[seed]  ")
                p.Eval.rp_rule)
            (Engine.rule_profile engine)
        end;
        Printf.printf "evaluated in %.3fs (%d iterations, storage=%s, threads=%d)\n"
          elapsed (Engine.iterations engine) (Storage.kind_name kind) threads)))

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM.dl")

let storage_arg =
  Arg.(value & opt string "btree" & info [ "storage"; "s" ] ~docv:"KIND"
         ~doc:("Relation storage: " ^ Storage.kind_choices ^ "."))

let threads_arg =
  Arg.(value & opt int 1 & info [ "threads"; "j" ] ~docv:"N"
         ~doc:"Worker domains for parallel evaluation.")

let print_arg =
  Arg.(value & opt_all string [] & info [ "print"; "p" ] ~docv:"RELATION"
         ~doc:"Print the contents of this relation (repeatable).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print operation statistics (Table 2 counters).")

let profile_arg =
  Arg.(value & flag & info [ "profile" ] ~doc:"Print per-rule evaluation times.")

let facts_arg =
  Arg.(value & opt (some dir) None & info [ "facts"; "F" ] ~docv:"DIR"
         ~doc:"Load <DIR>/<relation>.facts (TSV) for every input relation.")

let output_arg =
  Arg.(value & opt (some dir) None & info [ "output"; "D" ] ~docv:"DIR"
         ~doc:"Write every output relation to <DIR>/<relation>.csv (TSV).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the evaluation to $(docv) \
               (load it in ui.perfetto.dev or chrome://tracing).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write Prometheus text-format metrics (counters, latency \
               histograms, tree shape) to $(docv).  Combines with --stats \
               and --trace.")

let lenient_arg =
  Arg.(value & flag & info [ "lenient" ]
         ~doc:"Skip (and count, see io.malformed_lines in --stats/--metrics) \
               malformed fact lines instead of aborting the load.")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect"; "c" ] ~docv:"ADDR"
         ~doc:"Run against a resident $(b,datalog_serve) instance at $(docv) \
               ($(b,unix:PATH), $(b,PORT), or $(b,HOST:PORT)) instead of \
               evaluating locally: install PROGRAM.dl, batch-load --facts, \
               then query every output relation ($(b,--print) and \
               $(b,--output) apply to the served results).")

let shutdown_arg =
  Arg.(value & flag & info [ "shutdown" ]
         ~doc:"With --connect: ask the server to drain and exit afterwards \
               (with no PROGRAM.dl, just send the shutdown).")

let cmd =
  let doc = "evaluate a Datalog program with the specialized concurrent B-tree engine" in
  Cmd.v
    (Cmd.info "datalog_cli" ~doc)
    Term.(
      const run_program $ file_arg $ storage_arg $ threads_arg $ print_arg
      $ stats_arg $ profile_arg $ facts_arg $ output_arg $ trace_arg
      $ metrics_arg $ Obs_cli.chaos_term $ Obs_cli.flight_term $ lenient_arg
      $ Obs_cli.serve_metrics_term $ Obs_cli.serve_interval_term
      $ connect_arg $ shutdown_arg)

let () = exit (Cmd.eval cmd)
