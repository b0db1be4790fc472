(* Resident multi-domain Datalog query server.

     datalog_serve --listen unix:/tmp/dl.sock --program path.dl --facts dir/
     datalog_serve --listen 7411 --threads 8 --serve-metrics 9100

   Keeps an engine resident and serves the Dl_proto line protocol:
   concurrent clients mix ASSERT/LOAD ingest with QUERY traffic, the
   admission scheduler batches ingest into writer phases (generation
   flips) and fans queries out as concurrent reader phases on the domain
   pool.  An optional --program/--facts pair preloads the server through
   its own client module — the same path every other client takes. *)

let pf fmt = Printf.printf fmt

let fail_client ctx = function
  | Error m ->
    Printf.eprintf "datalog_serve: preload %s: %s\n" ctx m;
    exit 1
  | Ok (Dl_client.Err (code, msg)) ->
    Printf.eprintf "datalog_serve: preload %s: ERR %s %s\n" ctx code msg;
    exit 1
  | Ok r -> r

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  let text = read_file path in
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)

(* Preload through the protocol: the server owns all engine state, so
   even our own --program/--facts go through a client session. *)
let preload addr program facts_dir =
  match Dl_client.connect addr with
  | Error m ->
    Printf.eprintf "datalog_serve: cannot connect for preload: %s\n" m;
    exit 1
  | Ok c ->
    Fun.protect ~finally:(fun () -> Dl_client.close c) @@ fun () ->
    (match fail_client "RULES" (Dl_client.rules c (read_file program)) with
    | Dl_client.Ok_ info -> pf "preload: %s\n%!" info
    | _ ->
      Printf.eprintf "datalog_serve: preload RULES: unexpected reply\n";
      exit 1);
    match facts_dir with
    | None -> ()
    | Some dir ->
      let entries = Sys.readdir dir in
      Array.sort compare entries;
      Array.iter
        (fun entry ->
          match Filename.chop_suffix_opt ~suffix:".facts" entry with
          | None -> ()
          | Some rel -> (
            let rows = read_lines (Filename.concat dir entry) in
            match fail_client ("LOAD " ^ rel) (Dl_client.load c rel rows) with
            | Dl_client.Ok_ info -> pf "preload: %s <- %s (%s)\n%!" rel entry info
            | _ ->
              Printf.eprintf "datalog_serve: preload LOAD: unexpected reply\n";
              exit 1))
        entries

let serve listen storage threads flip_pending flip_interval max_pending
    max_clients data_dir durability wal_segment_mb program facts
    chaos flight serve_metrics serve_interval =
  let mon =
    Obs_cli.setup ~chaos ~flight ~serve_metrics ~serve_interval ()
  in
  Fun.protect ~finally:(fun () -> Obs_cli.teardown mon) @@ fun () ->
  match Storage.kind_of_name storage with
  | None ->
    Printf.eprintf "unknown storage kind %S (try: %s)\n" storage
      Storage.kind_choices;
    exit 2
  | Some kind -> (
    match Telemetry_server.parse_addr listen with
    | Error m ->
      Printf.eprintf "--listen: %s\n" m;
      exit 2
    | Ok addr -> (
      let durability =
        match Wal.durability_of_string durability with
        | Some d -> d
        | None ->
          Printf.eprintf "--durability: unknown mode %S (want %s)\n" durability
            Wal.durability_choices;
          exit 2
      in
      if data_dir = None && durability <> Wal.D_batch then begin
        Printf.eprintf "datalog_serve: --durability needs --data-dir\n";
        exit 2
      end;
      let base = Dl_server.default_config addr in
      let cfg =
        {
          base with
          Dl_server.kind;
          workers = (if threads <= 0 then base.Dl_server.workers else threads);
          flip_pending = max 1 flip_pending;
          flip_interval_ms = max 1 flip_interval;
          max_pending = max 1 max_pending;
          max_clients = max 1 max_clients;
          data_dir;
          durability;
          wal_segment_bytes = max 1 wal_segment_mb * 1024 * 1024;
        }
      in
      match Dl_server.start cfg with
      | Error m ->
        Printf.eprintf "datalog_serve: %s\n" m;
        exit 1
      | Ok srv ->
        let bound = Dl_server.bound srv in
        pf
          "datalog_serve: listening on %s (storage=%s workers=%d \
           flip=%d facts/%d ms, pending cap %d, %d clients)\n\
           %!"
          (Telemetry_server.addr_to_string bound)
          (Storage.kind_name kind) cfg.Dl_server.workers
          cfg.Dl_server.flip_pending cfg.Dl_server.flip_interval_ms
          cfg.Dl_server.max_pending cfg.Dl_server.max_clients;
        (match data_dir with
        | Some dir ->
          pf "datalog_serve: durable in %s (durability=%s)\n%!" dir
            (Wal.durability_name durability)
        | None -> ());
        (match program with
        | Some file -> preload bound file facts
        | None ->
          if facts <> None then begin
            Printf.eprintf "datalog_serve: --facts needs --program\n";
            exit 2
          end);
        let on_signal _ = Dl_server.signal_stop srv in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
         with _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
         with _ -> ());
        Dl_server.wait srv;
        pf "datalog_serve: stopped\n%!";
        if Chaos.active () then Format.printf "%a@." Chaos.pp_fired ()))

open Cmdliner

let listen_arg =
  Arg.(
    value & opt string "unix:datalog_serve.sock"
    & info [ "listen"; "l" ] ~docv:"ADDR"
        ~doc:
          "Listen address for the query protocol: $(b,unix:PATH), $(b,PORT) \
           (binds 127.0.0.1), or $(b,HOST:PORT); port 0 picks an ephemeral \
           port (printed at startup).")

let storage_arg =
  Arg.(
    value & opt string "btree"
    & info [ "storage"; "s" ] ~docv:"KIND"
        ~doc:
          ("Relation storage of the resident engine: " ^ Storage.kind_choices
         ^ "."))

let threads_arg =
  Arg.(
    value & opt int 0
    & info [ "threads"; "j" ] ~docv:"N"
        ~doc:
          "Resident pool size, shared by evaluation and query fan-out \
           (default: recommended domain count).")

let flip_pending_arg =
  Arg.(
    value & opt int 256
    & info [ "flip-pending" ] ~docv:"N"
        ~doc:"Flip into a writer phase once this many facts are pending.")

let flip_interval_arg =
  Arg.(
    value & opt int 50
    & info [ "flip-interval" ] ~docv:"MS"
        ~doc:
          "Flip into a writer phase once the oldest pending ingest has \
           waited this long.")

let max_pending_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission cap: beyond this many pending facts, ingest is \
           rejected with a 503-style $(b,ERR busy) until the next flip.")

let max_clients_arg =
  Arg.(
    value & opt int 64
    & info [ "max-clients" ] ~docv:"N"
        ~doc:"Concurrent client sessions; further connects are refused.")

let data_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "data-dir"; "d" ] ~docv:"DIR"
        ~doc:
          "Durable fact store: write-ahead log every admission into $(docv) \
           (created if missing) and recover program + facts from it at \
           startup.  Without it the server is purely in-memory.")

let durability_arg =
  Arg.(
    value & opt string "batch"
    & info [ "durability" ] ~docv:"MODE"
        ~doc:
          "When acked ingest reaches disk: $(b,strict) fsyncs before every \
           ack, $(b,batch) (default) group-commits one fsync per generation \
           flip, $(b,async) fsyncs only on rotation/shutdown, $(b,none) \
           never fsyncs.  Needs $(b,--data-dir).")

let wal_segment_mb_arg =
  Arg.(
    value & opt int 8
    & info [ "wal-segment-mb" ] ~docv:"MB"
        ~doc:
          "Write-ahead log segment rotation threshold; the log compacts \
           into one snapshot segment when it outgrows a few segments.")

let program_arg =
  Arg.(
    value & opt (some file) None
    & info [ "program" ] ~docv:"PROGRAM.dl"
        ~doc:"Install this program at startup (through the client path).")

let facts_arg =
  Arg.(
    value & opt (some dir) None
    & info [ "facts"; "F" ] ~docv:"DIR"
        ~doc:
          "Batch-load $(docv)/<relation>.facts (TSV) at startup; needs \
           $(b,--program).")

let cmd =
  let doc =
    "serve resident Datalog: concurrent ingest/query sessions scheduled as \
     phase flips"
  in
  Cmd.v
    (Cmd.info "datalog_serve" ~doc)
    Term.(
      const serve $ listen_arg $ storage_arg $ threads_arg $ flip_pending_arg
      $ flip_interval_arg $ max_pending_arg $ max_clients_arg $ data_dir_arg
      $ durability_arg $ wal_segment_mb_arg
      $ program_arg $ facts_arg $ Obs_cli.chaos_term
      $ Obs_cli.flight_term $ Obs_cli.serve_metrics_term
      $ Obs_cli.serve_interval_term)

let () = exit (Cmd.eval cmd)
