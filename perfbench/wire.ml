(* Traffic over raw protocol connections.

   One thread drives every connection.  [closed_loop], which the
   benchmark runs, sends one request at a time and waits for its reply,
   so a slow reply delays the next request instead of queueing a backlog
   behind it.  [run] pipelines a fixed schedule: it writes each request
   when it falls due (into a per-connection buffer flushed without
   blocking) and reads replies as they arrive; the tests use it to pin
   the server's reply order.  Replies are matched to requests per
   connection in FIFO order, which is only sound while each connection
   carries a single request class: the server answers ingest at
   admission but queues queries for the next reader phase, so a QUERY
   pipelined before an ASSERT on one connection is answered after it.
   A reply whose kind is not the one the FIFO head expects is therefore
   counted as a class mismatch, never silently re-paired. *)

type reply =
  | R_ok of string
  | R_data of string * string list
  | R_err of string * string

(* Incremental reply reader: bytes in, complete replies out. *)
type reader = {
  pending : Buffer.t; (* bytes after the last complete line *)
  mutable data : (string * int * string list) option;
      (* inside a DATA reply: info, rows still to come, rows so far *)
}

let reader () = { pending = Buffer.create 4096; data = None }

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let feed r chunk =
  Buffer.add_string r.pending chunk;
  let s = Buffer.contents r.pending in
  let out = ref [] in
  let rec lines pos =
    match String.index_from_opt s pos '\n' with
    | None -> pos
    | Some nl ->
      let line = strip_cr (String.sub s pos (nl - pos)) in
      (match r.data with
      | Some (info, 0, rows) ->
        (* the END line closes the payload *)
        r.data <- None;
        out := R_data (info, List.rev rows) :: !out;
        ignore line
      | Some (info, k, rows) -> r.data <- Some (info, k - 1, line :: rows)
      | None -> (
        match Dl_proto.parse_response_line line with
        | `Ok info -> out := R_ok info :: !out
        | `Data (n, info) -> r.data <- Some (info, n, [])
        | `Err (code, msg) -> out := R_err (code, msg) :: !out));
      lines (nl + 1)
  in
  let consumed = lines 0 in
  Buffer.clear r.pending;
  Buffer.add_substring r.pending s consumed (String.length s - consumed);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Checking replies                                                     *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Good
  | Server_err of string  (* an ERR reply *)
  | Class_mismatch  (* OK where DATA was due, or the reverse *)
  | Wrong_answer  (* DATA whose rows differ from the oracle's *)
  | Unanswered  (* no reply before the drain deadline, or link lost *)

let verdict_name = function
  | Good -> "good"
  | Server_err _ -> "err"
  | Class_mismatch -> "class_mismatch"
  | Wrong_answer -> "wrong_answer"
  | Unanswered -> "unanswered"

let check (expect : Workload.expect) reply =
  match (expect, reply) with
  | Workload.Ack, R_ok _ -> Good
  | Workload.Rows (n, h), R_data (_, rows) ->
    if Workload.answer_key rows = (n, h) then Good else Wrong_answer
  | _, R_err (code, msg) -> Server_err (code ^ " " ^ msg)
  | Workload.Ack, R_data _ | Workload.Rows _, R_ok _ -> Class_mismatch

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)
(* ------------------------------------------------------------------ *)

let now () = float_of_int (Telemetry.now_ns ()) /. 1e9

(* Connect and consume the greeting line (blocking), then switch the
   socket to non-blocking for the generator. *)
let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
    let b = Bytes.create 1 and line = Buffer.create 32 in
    let rec greet () =
      match Unix.read fd b 0 1 with
      | 0 -> failwith "connection closed before the greeting"
      | _ when Bytes.get b 0 = '\n' -> ()
      | _ ->
        Buffer.add_char line (Bytes.get b 0);
        greet ()
    in
    greet ();
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

type conn = {
  fd : Unix.file_descr;
  rd : reader;
  out : Buffer.t; (* written requests not yet taken by the kernel *)
  mutable off : int;
  waiting : (int * float) Queue.t; (* schedule index, send time *)
  mutable dead : bool;
}

(* What happened to one scheduled request. *)
type outcome = {
  req : Workload.req;
  sent : float; (* seconds after the start, when it was written *)
  finished : float; (* seconds after the start, when its reply completed *)
  verdict : verdict;
}

let flush c =
  let rec go () =
    let len = Buffer.length c.out - c.off in
    if len > 0 && not c.dead then
      match
        Unix.write_substring c.fd (Buffer.contents c.out) c.off len
      with
      | n ->
        c.off <- c.off + n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> c.dead <- true
  in
  go ();
  if c.off = Buffer.length c.out then begin
    Buffer.clear c.out;
    c.off <- 0
  end

(* [f] over [nconns] fresh connections to the Unix socket [path], closed
   when it returns or raises. *)
let with_conns path nconns f =
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns)
    (fun () ->
      for _ = 1 to nconns do
        conns :=
          { fd = connect path; rd = reader (); out = Buffer.create 4096; off = 0;
            waiting = Queue.create (); dead = false }
          :: !conns
      done;
      f (Array.of_list (List.rev !conns)))

(* Drive [schedule] (sorted by due time) over [nconns] connections to
   the Unix socket [path], then wait up to [drain_s] past the last due
   time for outstanding replies.  Returns one outcome per request, in
   schedule order. *)
let run ~path ~nconns ~drain_s
    (schedule : Workload.req array) =
  with_conns path nconns @@ fun conns ->
  let n = Array.length schedule in
  let results = Array.make n None in
  let sent = Array.make n nan in
  let chunk = Bytes.create 65536 in
  let t0 = now () in
  let last_due = if n = 0 then 0. else schedule.(n - 1).Workload.due in
  let deadline = t0 +. last_due +. drain_s in
  let next = ref 0 in
  let settle c reply =
    match Queue.take_opt c.waiting with
    | None -> () (* an unsolicited reply has no request to fail *)
    | Some (i, _) ->
      let req = schedule.(i) in
      results.(i) <-
        Some
          { req; sent = sent.(i); finished = now () -. t0;
            verdict = check req.Workload.expect reply }
  in
  let outstanding () =
    Array.exists (fun c -> not (Queue.is_empty c.waiting)) conns
  in
  let rec loop () =
    let t = now () in
    while !next < n && t0 +. schedule.(!next).Workload.due <= t do
      let i = !next in
      let req = schedule.(i) in
      let c = conns.(req.Workload.conn) in
      Buffer.add_string c.out req.Workload.line;
      Buffer.add_char c.out '\n';
      sent.(i) <- now () -. t0;
      Queue.add (i, sent.(i)) c.waiting;
      incr next
    done;
    Array.iter flush conns;
    let live = Array.exists (fun c -> not c.dead) conns in
    if live && (!next < n || outstanding ()) && t < deadline then begin
      let timeout =
        if !next < n then
          Float.max 0. (Float.min 0.05 (t0 +. schedule.(!next).Workload.due -. t))
        else Float.min 0.05 (deadline -. t)
      in
      let live_conns = List.filter (fun c -> not c.dead) (Array.to_list conns) in
      let rds = List.map (fun c -> c.fd) live_conns in
      let wrs =
        List.filter_map
          (fun c -> if Buffer.length c.out > c.off then Some c.fd else None)
          live_conns
      in
      let rd, _, _ =
        try Unix.select rds wrs [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd rd then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> c.dead <- true
            | k -> List.iter (settle c) (feed c.rd (Bytes.sub_string chunk 0 k))
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              ->
              ()
            | exception Unix.Unix_error _ -> c.dead <- true)
        live_conns;
      loop ()
    end
  in
  loop ();
  Array.mapi
    (fun i r ->
      match r with
      | Some o -> o
      | None ->
        { req = schedule.(i); sent = sent.(i); finished = nan;
          verdict = Unanswered })
    results

let read_buf = Bytes.create 65536

(* Send [req] on its connection and wait up to [timeout_s] for its
   reply.  A reply that arrives with another one behind it breaks the
   one-request-at-a-time pairing and counts as a class mismatch; a
   timeout or a lost link leaves the connection dead. *)
let call conns ~t0 ~timeout_s ~due (req : Workload.req) =
  let c = conns.(req.Workload.conn) in
  let sent = now () -. t0 in
  let outcome finished verdict =
    { req = { req with Workload.due }; sent; finished; verdict }
  in
  let chunk = read_buf in
  let deadline = now () +. timeout_s in
  let rec wait () =
    flush c;
    let t = now () in
    if c.dead || t > deadline then begin
      c.dead <- true;
      None
    end
    else
      let wr = if Buffer.length c.out > c.off then [ c.fd ] else [] in
      match Unix.select [ c.fd ] wr [] (Float.min 0.05 (deadline -. t)) with
      | [], _, _ -> wait ()
      | _ -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          c.dead <- true;
          None
        | k -> (
          match feed c.rd (Bytes.sub_string chunk 0 k) with
          | [] -> wait ()
          | [ reply ] -> Some (check req.Workload.expect reply)
          | _ -> Some Class_mismatch)
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          wait ()
        | exception Unix.Unix_error _ ->
          c.dead <- true;
          None)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  if c.dead then outcome nan Unanswered
  else begin
    Buffer.add_string c.out req.Workload.line;
    Buffer.add_char c.out '\n';
    match wait () with
    | None -> outcome nan Unanswered
    | Some verdict -> outcome (now () -. t0) verdict
  end

(* Closed loop over [nconns] connections to the Unix socket [path]:
   rounds [next_round 0], [next_round 1], ... are sent one request at a
   time, each when the previous one is answered (its due time), until
   [seconds] have passed; the round in progress is finished.  Returns
   one outcome per request sent, in order. *)
let closed_loop ~path ~nconns ~seconds ?(timeout_s = 30.) next_round =
  with_conns path nconns @@ fun conns ->
  let t0 = now () in
  let out = ref [] and due = ref 0. and k = ref 0 in
  while now () -. t0 < seconds && not (Array.exists (fun c -> c.dead) conns) do
    List.iter
      (fun req ->
        let o = call conns ~t0 ~timeout_s ~due:!due req in
        out := o :: !out;
        due := if Float.is_nan o.finished then now () -. t0 else o.finished)
      (next_round !k);
    incr k
  done;
  Array.of_list (List.rev !out)
