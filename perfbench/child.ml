(* The datalog_serve child process: spawn, readiness, graceful stop,
   forced reaping, and removal of its temp directory on every exit path.

   Every child is registered until it is reaped; [reap_all] (installed
   with [at_exit] and called from signal handlers by serve_bench) kills
   and waits for whatever is still running, so no exit path leaves a
   server behind. *)

type t = {
  pid : int;
  dir : string; (* temp dir: data/, the sockets, server.log *)
  sock : string;
  metrics_sock : string option;
  mutable reaped : bool;
}

let data_dir t = Filename.concat t.dir "data"
let log_path t = Filename.concat t.dir "server.log"
let addr t = Telemetry_server.Unix_sock t.sock

let metrics_addr t =
  Option.map (fun p -> Telemetry_server.Unix_sock p) t.metrics_sock

let live : t list ref = ref []

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

let now () = float_of_int (Telemetry.now_ns ()) /. 1e9

let forget t =
  t.reaped <- true;
  live := List.filter (fun c -> c != t) !live

(* Non-blocking reap; [true] once the child has exited. *)
let try_reap t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    forget t;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception Unix.Unix_error _ ->
    forget t;
    true

(* Wait up to [timeout] seconds for the child to exit by itself. *)
let wait_exit ~timeout t =
  let deadline = now () +. timeout in
  let rec go () =
    try_reap t
    || now () <= deadline
       && begin
         Unix.sleepf 0.005;
         go ()
       end
  in
  go ()

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit ~timeout:5. t)
  end

(* Kill, reap and remove the temp directory. *)
let destroy t =
  kill t;
  rm_rf t.dir

let reap_all () = List.iter destroy !live

exception Start_failed of string

(* Spawn [exe] on a fresh or existing [dir] and wait until it accepts a
   protocol connection.  Returns the child and that connection.  On
   failure the child is reaped and [Start_failed] carries its output. *)
let start ~exe ~dir ~traced ~threads flags =
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let metrics_sock =
    if traced then Some (Filename.concat dir "m.sock") else None
  in
  let args =
    [ exe; "--listen"; "unix:" ^ sock; "--threads"; string_of_int threads; "--data-dir";
      Filename.concat dir "data"; "--durability"; "batch" ]
    @ (match metrics_sock with
      | Some m -> [ "--serve-metrics"; "unix:" ^ m ]
      | None -> [])
    @ flags
  in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process exe (Array.of_list args) Unix.stdin log log)
  in
  let t = { pid; dir; sock; metrics_sock; reaped = false } in
  live := t :: !live;
  let fail why =
    kill t;
    raise
      (Start_failed
         (Printf.sprintf "%s\n--- server output ---\n%s" why
            (read_file (log_path t))))
  in
  let deadline = now () +. 60. in
  let rec connect () =
    if try_reap t then fail "datalog_serve exited during start-up"
    else if now () > deadline then fail "datalog_serve did not start in time"
    else
      match
        if Sys.file_exists sock then Dl_client.connect ~timeout_s:60. (addr t)
        else Error "no socket yet"
      with
      | Ok c -> c
      | Error _ ->
        Unix.sleepf 0.002;
        connect ()
  in
  (t, connect ())

(* Graceful stop: SHUTDOWN, then wait for the process to exit (killed
   if it does not).  The temp directory stays for a restart. *)
let shutdown t c =
  ignore (Dl_client.shutdown c);
  Dl_client.close c;
  if not (wait_exit ~timeout:20. t) then kill t

(* Peak resident set of the child, from the kernel's process status. *)
let vm_hwm_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> (
          match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
        | [] -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' status)

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0
