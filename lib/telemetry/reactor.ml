(* One select loop for the resident servers; see reactor.mli.  Sessions,
   their buffers and the hooks live on the reactor's domain; the only
   cross-domain edges are the self-pipe ([signal_stop]), the [finished]
   flag and [wait]'s join. *)

type session = {
  line : string -> unit;
  overlong : unit -> unit;
  ready : unit -> unit;
  closed : unit -> unit;
}

type conn = {
  fd : Unix.file_descr;
  owner : t;
  mutable buf : Bytes.t; (* unconsumed input is [lo, hi) *)
  mutable lo : int;
  mutable hi : int;
  outq : string Queue.t;
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable session : session;
  mutable alive : bool;
  mutable closing : bool; (* close once the queue drains *)
}

and t = {
  lfd : Unix.file_descr;
  unlink : string option;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  mutable conns : conn list;
  max_conns : int;
  max_line : int;
  mutable dom : unit Domain.t option;
  finished : bool Atomic.t; (* the domain has shut down *)
  mutable joined : bool;
}

type hooks = {
  accept : full:bool -> conn -> (session, string) result;
  tick : t -> float option;
  stop : unit -> unit;
  finish : unit -> unit;
}

let no_session =
  { line = ignore; overlong = ignore; ready = ignore; closed = ignore }

let close c =
  if c.alive then begin
    c.alive <- false;
    c.owner.conns <- List.filter (fun o -> o != c) c.owner.conns;
    (try Unix.close c.fd with _ -> ());
    c.session.closed ()
  end

let[@lint.dispatch
    "writeback dispatch point of the select loop: nonblocking sends, \
     EWOULDBLOCK re-queues"] rec flush_conn c =
  if c.alive then
    if Queue.is_empty c.outq then (if c.closing then close c)
    else
      let head = Queue.peek c.outq in
      let len = String.length head - c.out_off in
      match Unix.write_substring c.fd head c.out_off len with
      | n when n = len ->
        ignore (Queue.pop c.outq);
        c.out_off <- 0;
        flush_conn c
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn c
      | exception _ -> close c

let send c s =
  if c.alive then begin
    Queue.add s c.outq;
    flush_conn c
  end

let close_after_flush c =
  c.closing <- true;
  flush_conn c

let flushed r = List.for_all (fun c -> Queue.is_empty c.outq) r.conns

(* Hand every complete line to the session, copying each once.  A
   closing session gets no more input. *)
let rec deliver c =
  if c.closing then c.lo <- c.hi
  else if c.alive then begin
    let nl = ref c.lo in
    while !nl < c.hi && Bytes.unsafe_get c.buf !nl <> '\n' do incr nl done;
    if !nl < c.hi then begin
      let stop =
        if !nl > c.lo && Bytes.get c.buf (!nl - 1) = '\r' then !nl - 1
        else !nl
      in
      let line = Bytes.sub_string c.buf c.lo (stop - c.lo) in
      c.lo <- !nl + 1;
      c.session.line line;
      deliver c
    end
    else if c.hi - c.lo > c.owner.max_line then begin
      c.lo <- c.hi;
      c.session.overlong ()
    end
  end

let[@lint.dispatch
    "session-read dispatch point of the select loop: reads only fds the \
     select reported readable"] read_ready c =
  if c.alive then c.session.ready ();
  if c.alive then begin
    (* the unconsumed tail moves to the front; the buffer doubles only
       when one line outgrows it *)
    let pending = c.hi - c.lo in
    let dst =
      if pending = Bytes.length c.buf then Bytes.create (2 * pending)
      else c.buf
    in
    if dst != c.buf || c.lo > 0 then Bytes.blit c.buf c.lo dst 0 pending;
    c.buf <- dst;
    c.lo <- 0;
    c.hi <- pending;
    match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
    | 0 -> close c
    | n ->
      c.hi <- c.hi + n;
      deliver c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception _ -> close c
  end

let[@lint.dispatch
    "accept dispatch point of the select loop: accepts only when the \
     listener polled readable"] rec accept_ready r h =
  match Unix.accept ~cloexec:true r.lfd with
  | exception _ -> ()
  | fd, _ ->
    (try Unix.set_nonblock fd with _ -> ());
    let full = List.length r.conns >= r.max_conns in
    let c =
      {
        fd;
        owner = r;
        buf = Bytes.create 8192;
        lo = 0;
        hi = 0;
        outq = Queue.create ();
        out_off = 0;
        session = no_session;
        alive = true;
        closing = false;
      }
    in
    r.conns <- c :: r.conns;
    (match h.accept ~full c with
    | Ok s ->
      c.session <- s;
      (* the peer may have gone while the session greeted it *)
      if not c.alive then s.closed ()
    | Error refusal ->
      send c refusal;
      close_after_flush c);
    accept_ready r h

let rec loop r h =
  match h.tick r with
  | None -> ()
  | Some timeout ->
    let conns = r.conns in
    let rds = r.lfd :: r.stop_rd :: List.map (fun c -> c.fd) conns in
    let wrs =
      List.filter_map
        (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
        conns
    in
    let rd, wr, _ =
      try Unix.select rds wrs [] timeout
      with Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ([], [], [])
    in
    if List.mem r.stop_rd rd then begin
      (try
         ignore
           (Unix.read r.stop_rd (Bytes.create 1) 0 1
           [@lint.allow
             "select-loop-purity: one-byte self-pipe drain; the fd polled \
              readable in this very select"])
       with _ -> ());
      h.stop ()
    end;
    if List.mem r.lfd rd then accept_ready r h;
    List.iter (fun c -> if List.mem c.fd rd then read_ready c) conns;
    List.iter (fun c -> if List.mem c.fd wr then flush_conn c) conns;
    loop r h

let start ?unlink ~max_conns ~max_line lfd make =
  (try Unix.set_nonblock lfd with _ -> ());
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  let r =
    {
      lfd;
      unlink;
      stop_rd;
      stop_wr;
      conns = [];
      max_conns;
      max_line;
      dom = None;
      finished = Atomic.make false;
      joined = false;
    }
  in
  let shutdown h =
    List.iter close r.conns;
    (try Unix.close lfd with _ -> ());
    Option.iter (fun p -> try Unix.unlink p with _ -> ()) unlink;
    h.finish ()
  in
  let run () =
    Fun.protect
      ~finally:(fun () -> Atomic.set r.finished true)
      (fun () ->
        let h = make () in
        Fun.protect ~finally:(fun () -> shutdown h) (fun () -> loop r h))
  in
  r.dom <- Some (Domain.spawn run);
  r

let signal_stop r =
  if not (Atomic.get r.finished) then
    try ignore (Unix.write_substring r.stop_wr "x" 0 1) with _ -> ()

let wait r =
  if not r.joined then begin
    r.joined <- true;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with _ -> ())
          [ r.stop_wr; r.stop_rd ])
      (fun () ->
        (* a signal handler waits for a safe point of the main domain,
           and [Domain.join] reaches none until the domain is done; short
           sleeps let a handler that calls [signal_stop] run within one *)
        while not (Atomic.get r.finished) do
          Unix.sleepf 0.01
        done;
        Option.iter Domain.join r.dom)
  end
