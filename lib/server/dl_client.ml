(* Blocking protocol client.  Deliberately boring: one fd, one read
   buffer, socket timeouts instead of an event loop — the concurrency
   story lives on the server side, a client is one session on one
   domain. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t; (* unread input is [rd, wr) *)
  mutable rd : int;
  mutable wr : int;
  mutable scanned : int; (* [rd, scanned) holds no newline *)
  mutable alive : bool;
}

type reply =
  | Ok_ of string
  | Data of string * string list
  | Err of string * string

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with _ -> ()
  end

(* --------------------------------------------------------------- *)
(* Buffered line reading                                            *)
(* --------------------------------------------------------------- *)

(* The newline is searched in place, resuming where the last search
   stopped, so a reply costs O(its bytes).  Before a read the unread tail
   moves to the front of the buffer; the buffer doubles only when one
   line outgrows it. *)
let rec read_line t =
  if not t.alive then Error "connection closed"
  else begin
    let nl = ref t.scanned in
    while !nl < t.wr && Bytes.unsafe_get t.buf !nl <> '\n' do incr nl done;
    if !nl < t.wr then begin
      let stop =
        if !nl > t.rd && Bytes.get t.buf (!nl - 1) = '\r' then !nl - 1 else !nl
      in
      let line = Bytes.sub_string t.buf t.rd (stop - t.rd) in
      t.rd <- !nl + 1;
      t.scanned <- t.rd;
      Ok line
    end
    else begin
      let pending = t.wr - t.rd in
      if pending = Bytes.length t.buf then begin
        let bigger = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf t.rd bigger 0 pending;
        t.buf <- bigger
      end
      else if t.rd > 0 then Bytes.blit t.buf t.rd t.buf 0 pending;
      t.rd <- 0;
      t.wr <- pending;
      t.scanned <- pending;
      match Unix.read t.fd t.buf t.wr (Bytes.length t.buf - t.wr) with
      | 0 ->
        close t;
        Error "connection closed by server"
      | n ->
        t.wr <- t.wr + n;
        read_line t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        close t;
        Error "receive timeout"
      | exception e ->
        close t;
        Error (Printexc.to_string e)
    end
  end

let write_all t s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write t.fd b off (len - off) with
      | 0 ->
        close t;
        Error "send failed"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception e ->
        close t;
        Error (Printexc.to_string e)
  in
  if t.alive then go 0 else Error "connection closed"

(* --------------------------------------------------------------- *)
(* Replies                                                          *)
(* --------------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let read_reply t =
  let* status = read_line t in
  match Dl_proto.parse_response_line status with
  | `Ok info -> Ok (Ok_ info)
  | `Err ("garbled", line) ->
    close t;
    Error ("garbled reply: " ^ line)
  | `Err (code, msg) -> Ok (Err (code, msg))
  | `Data (n, info) ->
    let rec rows acc k =
      if k = 0 then Ok (List.rev acc)
      else
        let* line = read_line t in
        rows (line :: acc) (k - 1)
    in
    let* payload = rows [] n in
    let* fin = read_line t in
    if fin = "END" then Ok (Data (info, payload))
    else begin
      close t;
      Error ("bad payload terminator: " ^ fin)
    end

let request t line =
  let* () = write_all t (line ^ "\n") in
  read_reply t

let send_payload t header lines =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  let* () = write_all t (Buffer.contents buf) in
  read_reply t

(* --------------------------------------------------------------- *)
(* Connect                                                          *)
(* --------------------------------------------------------------- *)

let resolve_host h =
  try Unix.inet_addr_of_string h
  with _ -> (
    try (Unix.gethostbyname h).Unix.h_addr_list.(0)
    with _ -> failwith ("cannot resolve host " ^ h))

let connect ?(timeout_s = 30.0) addr =
  let mk () =
    match addr with
    | Telemetry_server.Tcp (host, port) ->
      ( Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (resolve_host host, port) )
    | Telemetry_server.Unix_sock p ->
      ( Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0,
        Unix.ADDR_UNIX p )
  in
  match mk () with
  | exception e -> Error (Printexc.to_string e)
  | fd, sa -> (
    match
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
      Unix.connect fd sa
    with
    | () -> (
      let t =
        {
          fd;
          buf = Bytes.create 4096;
          rd = 0;
          wr = 0;
          scanned = 0;
          alive = true;
        }
      in
      (* the greeting is the handshake: anything else is not our server *)
      match read_line t with
      | Ok g when g = Dl_proto.greeting -> Ok t
      | Ok g ->
        close t;
        Error ("unexpected greeting: " ^ g)
      | Error e ->
        close t;
        Error e)
    | exception e ->
      (try Unix.close fd with _ -> ());
      Error (Printexc.to_string e))

(* --------------------------------------------------------------- *)
(* Reconnect/retry sessions                                         *)
(* --------------------------------------------------------------- *)

(* Promoted from the stress harness's ad-hoc loops: a session that
   lazily (re)connects and retries *connection-level* failures only —
   a structured ERR reply is an answer, not a fault, and retrying it
   would turn admission control (ERR busy) into a hot loop.  Backoff
   is seeded jittered exponential so a fleet of clients hammering one
   reborn server fans out instead of thundering. *)

type session = {
  s_addr : Telemetry_server.addr;
  s_attempts : int;
  s_backoff_ms : float;
  s_timeout_s : float;
  mutable s_rng : int;
  mutable s_conn : t option;
}

let session ?(attempts = 10) ?(backoff_ms = 2.0) ?(seed = 1) ?(timeout_s = 30.0)
    addr =
  let rng = if seed = 0 then 0x2545F491 else seed land max_int in
  {
    s_addr = addr;
    s_attempts = max 1 attempts;
    s_backoff_ms = Float.max 0.0 backoff_ms;
    s_timeout_s = timeout_s;
    s_rng = rng;
    s_conn = None;
  }

let disconnect s =
  match s.s_conn with
  | Some c ->
    close c;
    s.s_conn <- None
  | None -> ()

let rng_next s =
  let r = s.s_rng in
  let r = r lxor (r lsl 13) land max_int in
  let r = r lxor (r lsr 7) in
  let r = r lxor (r lsl 17) land max_int in
  let r = if r = 0 then 0x2545F491 else r in
  s.s_rng <- r;
  r

(* attempt k (k >= 1) sleeps backoff * 2^(k-1), capped, scaled by a
   jitter factor in [0.5, 1.5) drawn from the session's own stream *)
let backoff_sleep s k =
  if s.s_backoff_ms > 0.0 then begin
    let exp = Float.min 64.0 (Float.pow 2.0 (float_of_int (min 6 (k - 1)))) in
    let jitter = 0.5 +. (float_of_int (rng_next s mod 1024) /. 1024.0) in
    Unix.sleepf (s.s_backoff_ms /. 1000.0 *. exp *. jitter)
  end

let retry s f =
  let rec go k last =
    if k > s.s_attempts then
      Error (Printf.sprintf "after %d attempts: %s" s.s_attempts last)
    else begin
      if k > 1 then backoff_sleep s (k - 1);
      match
        match s.s_conn with
        | Some c when c.alive -> Ok c
        | _ -> (
          s.s_conn <- None;
          match connect ~timeout_s:s.s_timeout_s s.s_addr with
          | Ok c ->
            s.s_conn <- Some c;
            Ok c
          | Error _ as e -> e)
      with
      | Error m -> go (k + 1) ("connect: " ^ m)
      | Ok c -> (
        match f c with
        | Ok _ as r -> r
        | Error m ->
          (* transport fault: this connection is dead; a fresh one may
             succeed.  Note a retried request is re-sent whole — safe
             against servers that only apply fully-parsed requests. *)
          disconnect s;
          go (k + 1) m)
    end
  in
  go 1 "no attempts made"

let with_retry ?attempts ?backoff_ms ?seed ?timeout_s addr f =
  let s = session ?attempts ?backoff_ms ?seed ?timeout_s addr in
  Fun.protect ~finally:(fun () -> disconnect s) (fun () -> f s)

(* --------------------------------------------------------------- *)
(* Verb wrappers                                                    *)
(* --------------------------------------------------------------- *)

let hello t = request t ("HELLO " ^ Dl_proto.version)
let ping t = request t "PING"
let stats t = request t "STATS"
let shutdown t = request t "SHUTDOWN"

let rules t text =
  let lines = String.split_on_char '\n' text in
  (* a trailing newline in the source is not an extra payload line *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  send_payload t (Printf.sprintf "RULES %d" (List.length lines)) lines

let load t rel rows =
  send_payload t (Printf.sprintf "LOAD %s %d" rel (List.length rows)) rows

let assert_fact t rel fields =
  request t (Printf.sprintf "ASSERT %s %s" rel (String.concat " " fields))

let query t rel pats =
  request t (Printf.sprintf "QUERY %s %s" rel (String.concat " " pats))
