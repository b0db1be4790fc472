(* Write-ahead log for the resident server's fact store.

   Everything here is cold relative to the structures the paper
   measures: one append per admitted batch, one fsync per ack (strict)
   or per flip (batch).  So the implementation favours being obviously
   correct over being clever — whole records are assembled in a buffer
   and written with one write(2), segments are read back wholesale at
   recovery, and no state is shared across domains (the handle has a
   single owner, the server domain, like every other Dl_server
   structure; the only module-level state is the in-process lock
   registry below, which exists because fcntl-style locks do not
   exclude a second open in the *same* process). *)

type durability = D_none | D_async | D_batch | D_strict

let durability_of_string = function
  | "none" -> Some D_none
  | "async" -> Some D_async
  | "batch" -> Some D_batch
  | "strict" -> Some D_strict
  | _ -> None

let durability_name = function
  | D_none -> "none"
  | D_async -> "async"
  | D_batch -> "batch"
  | D_strict -> "strict"

let durability_choices = "none|async|batch|strict"

type entry =
  | Rules of string
  | Facts of string * string list
  | Commit of int
  | Anchor of int

type recovery = {
  rv_records : int;
  rv_segments : int;
  rv_bytes : int;
  rv_committed_seq : int;
  rv_torn_tail : bool;
}

type t = {
  w_dir : string;
  w_durability : durability;
  w_segment_bytes : int;
  w_compact_segments : int;
  w_lock_fd : Unix.file_descr;
  w_lock_key : string;
  mutable w_fd : Unix.file_descr;
  mutable w_seg_seq : int; (* sequence number of the open segment *)
  mutable w_seg_bytes : int; (* size of the open segment *)
  mutable w_segments : int; (* live segment files *)
  mutable w_records : int;
  mutable w_bytes : int;
  mutable w_fsyncs : int;
  mutable w_compactions : int;
  mutable w_torn : bool; (* wal.write.short fired: refuse appends *)
  mutable w_closed : bool;
}

(* ---------------------------------------------------------------- *)
(* Record format                                                     *)
(* ---------------------------------------------------------------- *)

let magic = "DLWAL001"
let magic_len = String.length magic
let header_len = 9 (* len:u32le crc:u32le type:u8 *)

(* A record larger than this cannot have been written by us, because
   every writer is bounded: an appended fact batch is one LOAD, which the
   protocol caps at [Dl_proto.max_batch_bytes] (16 MiB) of payload, and
   a snapshot cuts its facts into records of at most
   [snapshot_record_bytes] (below).  Treat a larger length as corruption
   rather than attempting a gigantic allocation. *)
let max_record_len = 64 * 1024 * 1024

(* Payload bound of one snapshot fact record: several protocol lines
   ([Dl_proto.max_line] is 64 KiB), so a record always holds whole
   lines, and far below [max_record_len]. *)
let snapshot_record_bytes = 256 * 1024

(* CRC-32 (IEEE 802.3), slicing-by-8: table [k] (entries [256k ..
   256k + 255]) advances a byte through k further zero bytes, so eight
   lookups fold eight bytes at once; the tail goes a byte per step
   through table 0, the classic bytewise table.  Values stay within 32
   bits, so plain int arithmetic is exact. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let crc32 b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Wal.crc32";
  let t = Lazy.force crc_tables in
  let tbl k i = Array.unsafe_get t ((256 * k) + (i land 0xFF)) in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      tbl 7 lo
      lxor tbl 6 (lo lsr 8)
      lxor tbl 5 (lo lsr 16)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 hi
      lxor tbl 2 (hi lsr 8)
      lxor tbl 1 (hi lsr 16)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tbl 0 (!c lxor Char.code (Bytes.unsafe_get b j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let type_byte = function
  | Rules _ -> 'R'
  | Facts _ -> 'F'
  | Commit _ -> 'C'
  | Anchor _ -> 'A'

let payload_of = function
  | Rules text -> text
  | Facts (rel, []) -> rel
  | Facts (rel, lines) -> rel ^ "\n" ^ String.concat "\n" lines
  | Commit seq | Anchor seq -> string_of_int seq

(* Decode the record of type [ty] whose payload is [b.[off, off+len)],
   straight from the segment buffer: a fact record is split into its
   relation name and lines, each copied once. *)
let decode_entry ty b off len =
  let seq what =
    match int_of_string_opt (Bytes.sub_string b off len) with
    | Some seq -> Ok seq
    | None -> Error ("malformed " ^ what)
  in
  match ty with
  | 'R' -> Ok (Rules (Bytes.sub_string b off len))
  | 'F' ->
    let stop = off + len in
    let nl = ref off in
    while !nl < stop && Bytes.unsafe_get b !nl <> '\n' do incr nl done;
    let nl = !nl in
    if len = 0 then Error "empty facts record"
    else if nl = off then Error "facts record without relation"
    else
      let rel = Bytes.sub_string b off (nl - off) in
      if nl = stop then Ok (Facts (rel, []))
      else begin
        (* lines last to first, so the list comes out in order *)
        let lines = ref [] and hi = ref stop in
        for j = stop - 1 downto nl + 1 do
          if Bytes.unsafe_get b j = '\n' then begin
            lines := Bytes.sub_string b (j + 1) (!hi - j - 1) :: !lines;
            hi := j
          end
        done;
        Ok (Facts (rel, Bytes.sub_string b (nl + 1) (!hi - nl - 1) :: !lines))
      end
  | 'C' -> Result.map (fun s -> Commit s) (seq "commit marker")
  | 'A' -> Result.map (fun s -> Anchor s) (seq "snapshot anchor")
  | c -> Error (Printf.sprintf "unknown record type %C" c)

let encode_record e =
  let payload = payload_of e in
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  put_u32 b 0 len;
  Bytes.set b 8 (type_byte e);
  Bytes.blit_string payload 0 b header_len len;
  put_u32 b 4 (crc32 b 8 (1 + len));
  b

(* ---------------------------------------------------------------- *)
(* Low-level IO                                                      *)
(* ---------------------------------------------------------------- *)

let seg_name seq = Printf.sprintf "wal-%08d.log" seq
let seg_path dir seq = Filename.concat dir (seg_name seq)

let seg_seq_of_name name =
  if
    String.length name = 16
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 8)
  else None

let write_all fd b off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

(* Make directory metadata (renames, unlinks, fresh files) durable;
   best-effort — not every filesystem supports fsync on a directory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception _ -> ()
  | dfd ->
    (try Unix.fsync dfd with _ -> ());
    (try Unix.close dfd with _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Bytes.create (in_channel_length ic) in
      really_input ic b 0 (Bytes.length b);
      b)

(* ---------------------------------------------------------------- *)
(* Lock file                                                         *)
(* ---------------------------------------------------------------- *)

(* fcntl record locks are per-process: a second lockf in the same
   process silently succeeds, so a same-process double-start would not
   be refused without this registry.  The mutex only guards the table;
   the wal handle itself stays single-owner. *)
let lock_mutex = Mutex.create ()
let locked_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let lock_key dir = try Unix.realpath dir with _ -> dir

let take_lock dir =
  let key = lock_key dir in
  let registered =
    Mutex.protect lock_mutex (fun () ->
        if Hashtbl.mem locked_dirs key then false
        else begin
          Hashtbl.add locked_dirs key ();
          true
        end)
  in
  if not registered then
    Error
      (Printf.sprintf "wal: data dir %s is locked by this process (double start?)"
         dir)
  else
    let release_registry () =
      Mutex.protect lock_mutex (fun () -> Hashtbl.remove locked_dirs key)
    in
    match
      Unix.openfile (Filename.concat dir "LOCK")
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    with
    | exception e ->
      release_registry ();
      Error
        (Printf.sprintf "wal: cannot open lock file in %s: %s" dir
           (Printexc.to_string e))
    | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> Ok (fd, key)
      | exception _ ->
        (try Unix.close fd with _ -> ());
        release_registry ();
        Error
          (Printf.sprintf
             "wal: data dir %s is locked by another server (lock file held)" dir))

let drop_lock fd key =
  (try Unix.close fd with _ -> ());
  Mutex.protect lock_mutex (fun () -> Hashtbl.remove locked_dirs key)

(* ---------------------------------------------------------------- *)
(* Recovery scan                                                     *)
(* ---------------------------------------------------------------- *)

(* Scan one segment image, handing each valid record to [emit] in log
   order.  Returns the end of the valid prefix and either [`Clean] or
   [`Corrupt (offset, detail)] — the caller decides whether a corruption
   is a benign torn tail (final segment) or fatal. *)
let scan_segment b emit =
  let n = Bytes.length b in
  if n < magic_len || Bytes.sub_string b 0 magic_len <> magic then
    (0, `Corrupt (0, "bad segment header"))
  else begin
    let pos = ref magic_len in
    let status = ref `Clean in
    let stop = ref false in
    while (not !stop) && !pos < n do
      let off = !pos in
      if n - off < header_len then begin
        status := `Corrupt (off, "short record header");
        stop := true
      end
      else begin
        let len = get_u32 b off in
        let crc = get_u32 b (off + 4) in
        if len > max_record_len || n - off - header_len < len then begin
          status := `Corrupt (off, "short or oversized record");
          stop := true
        end
        else begin
          (* chaos: bit-flip a payload byte as it is read back, the
             classic lying-disk drill; the CRC below must catch it *)
          if len > 0 && Chaos.fire Chaos.Point.Wal_recover_corrupt then begin
            let i = off + header_len + (len / 2) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10))
          end;
          if crc32 b (off + 8) (1 + len) <> crc then begin
            status := `Corrupt (off, "checksum mismatch");
            stop := true
          end
          else
            match decode_entry (Bytes.get b (off + 8)) b (off + header_len) len with
            | Error detail ->
              status := `Corrupt (off, detail);
              stop := true
            | Ok e ->
              emit off e;
              pos := off + header_len + len
        end
      end
    done;
    (!pos, !status)
  end

let truncate_file path len =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 with
  | exception _ -> ()
  | fd ->
    (try Unix.ftruncate fd len with _ -> ());
    (try Unix.close fd with _ -> ())

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match seg_seq_of_name name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None ->
           (* a leftover compaction temp file is garbage from a crash
              mid-compact: the rename never happened, so drop it *)
           if Filename.check_suffix name ".log.tmp" then
             (try Unix.unlink (Filename.concat dir name) with _ -> ());
           None)
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let recover_dir ?replay dir =
  let segs = list_segments dir in
  let nsegs = List.length segs in
  let exception Fatal of string in
  try
    let records = ref 0 and bytes = ref 0 and committed = ref 0 in
    let torn = ref false in
    List.iteri
      (fun i (_, path) ->
        let final = i = nsegs - 1 in
        let data = try read_file path with e ->
          raise (Fatal (Printf.sprintf "wal: cannot read %s: %s" path
                          (Printexc.to_string e)))
        in
        let emit off e =
          (match e with
          | Commit s | Anchor s -> committed := max !committed s
          | Rules _ | Facts _ -> ());
          incr records;
          match replay with
          | None -> ()
          | Some f -> (
            let refuse msg =
              raise
                (Fatal
                   (Printf.sprintf "wal: replay of %s at offset %d: %s"
                      (Filename.basename path) off msg))
            in
            match f e with
            | Ok () -> ()
            | Error msg -> refuse msg
            | exception ex -> refuse (Printexc.to_string ex))
        in
        let valid_end, status = scan_segment data emit in
        bytes := !bytes + valid_end;
        match status with
        | `Clean -> ()
        | `Corrupt (off, detail) ->
          if final then begin
            (* a torn write is exactly what a crash mid-append leaves;
               keep the valid prefix, physically cut the tail off *)
            truncate_file path (max off 0);
            torn := true;
            Telemetry.bump Telemetry.Counter.Wal_torn_tails
          end
          else
            raise
              (Fatal
                 (Printf.sprintf
                    "wal: corrupt record in non-final segment %s at offset %d \
                     (%s); refusing to serve — acked data may be lost"
                    (Filename.basename path) off detail)))
      segs;
    Telemetry.add Telemetry.Counter.Wal_replayed_records !records;
    Ok
      {
        rv_records = !records;
        rv_segments = nsegs;
        rv_bytes = !bytes;
        rv_committed_seq = !committed;
        rv_torn_tail = !torn;
      }
  with Fatal msg -> Error msg

(* ---------------------------------------------------------------- *)
(* Opening                                                           *)
(* ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create_segment dir seq =
  let fd =
    Unix.openfile (seg_path dir seq)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  (match write_all fd (Bytes.of_string magic) 0 magic_len with
  | () -> ()
  | exception e ->
    (try Unix.close fd with _ -> ());
    raise e);
  Telemetry.bump Telemetry.Counter.Wal_segments;
  fd

let open_dir ?(segment_bytes = 8 * 1024 * 1024) ?(compact_segments = 4)
    ?replay ~durability dir =
  match mkdir_p dir with
  | exception e ->
    Error
      (Printf.sprintf "wal: cannot create data dir %s: %s" dir
         (Printexc.to_string e))
  | () -> (
    match take_lock dir with
    | Error _ as e -> e
    | Ok (lock_fd, lock_key) -> (
      match recover_dir ?replay dir with
      | Error msg ->
        drop_lock lock_fd lock_key;
        Error msg
      | Ok rv -> (
        match
          (* open (or create) the tail segment for appending; a final
             segment whose very header was torn away restarts empty *)
          let segs = list_segments dir in
          match List.rev segs with
          | [] -> (1, create_segment dir 1, magic_len, 1)
          | (seq, path) :: _ ->
            let size = (Unix.stat path).Unix.st_size in
            if size < magic_len then (seq, create_segment dir seq, magic_len, List.length segs)
            else
              let fd =
                Unix.openfile path
                  [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ]
                  0o644
              in
              (seq, fd, size, List.length segs)
        with
        | exception e ->
          drop_lock lock_fd lock_key;
          Error
            (Printf.sprintf "wal: cannot open segment in %s: %s" dir
               (Printexc.to_string e))
        | seq, fd, size, nsegs ->
          Ok
            ( {
                w_dir = dir;
                w_durability = durability;
                w_segment_bytes = max 4096 segment_bytes;
                w_compact_segments = max 2 compact_segments;
                w_lock_fd = lock_fd;
                w_lock_key = lock_key;
                w_fd = fd;
                w_seg_seq = seq;
                w_seg_bytes = size;
                w_segments = nsegs;
                w_records = 0;
                w_bytes = 0;
                w_fsyncs = 0;
                w_compactions = 0;
                w_torn = false;
                w_closed = false;
              },
              rv ))))

(* ---------------------------------------------------------------- *)
(* Appending                                                         *)
(* ---------------------------------------------------------------- *)

let sync_now t =
  if Chaos.fire Chaos.Point.Wal_fsync_fail then
    Error "chaos: wal.fsync.fail (flush lost)"
  else
    match
      let t0 = Telemetry.hist_time () in
      Unix.fsync t.w_fd;
      t.w_fsyncs <- t.w_fsyncs + 1;
      Telemetry.bump Telemetry.Counter.Wal_fsyncs;
      if t0 > 0 then
        Telemetry.hist_record Telemetry.Hist.Wal_fsync_ns
          (Telemetry.now_ns () - t0)
    with
    | () -> Ok ()
    | exception e -> Error (Printf.sprintf "wal: fsync: %s" (Printexc.to_string e))

let sync t =
  if t.w_closed then Error "wal: closed"
  else if t.w_durability = D_none then Ok ()
  else sync_now t

let rotate t =
  (* the old segment's contents must be durable before we stop writing
     to it (async/batch promise durability at rotation boundaries) *)
  let pre = if t.w_durability = D_none then Ok () else sync_now t in
  match pre with
  | Error _ as e -> e
  | Ok () -> (
    match
      let seq = t.w_seg_seq + 1 in
      let fd = create_segment t.w_dir seq in
      (try Unix.close t.w_fd with _ -> ());
      fsync_dir t.w_dir;
      t.w_fd <- fd;
      t.w_seg_seq <- seq;
      t.w_seg_bytes <- magic_len;
      t.w_segments <- t.w_segments + 1
    with
    | () -> Ok ()
    | exception e ->
      Error (Printf.sprintf "wal: rotate: %s" (Printexc.to_string e)))

let append t e =
  if t.w_closed then Error "wal: closed"
  else if t.w_torn then
    Error "wal: log tail is torn (failed append); compact or reopen to recover"
  else
    let rotated =
      if t.w_seg_bytes >= t.w_segment_bytes then rotate t else Ok ()
    in
    match rotated with
    | Error _ as err -> err
    | Ok () -> (
      let b = encode_record e in
      let len = Bytes.length b in
      if Chaos.fire Chaos.Point.Wal_write_short then begin
        (* simulate dying mid-write: a prefix of the record reaches the
           file and this handle is dead — recovery must truncate it *)
        let short = max 1 (len / 2) in
        (try write_all t.w_fd b 0 short with _ -> ());
        t.w_seg_bytes <- t.w_seg_bytes + short;
        t.w_torn <- true;
        Error "chaos: wal.write.short (torn record)"
      end
      else
        match
          let t0 = Telemetry.hist_time () in
          write_all t.w_fd b 0 len;
          if t0 > 0 then
            Telemetry.hist_record Telemetry.Hist.Wal_append_ns
              (Telemetry.now_ns () - t0)
        with
        | exception ex ->
          (* A real failure mid-write(2) (ENOSPC, EIO) can leave a
             partial record on disk, exactly like the chaos short
             write: the handle is dead until compact rebuilds a valid
             log — further O_APPEND writes after the torn bytes would
             turn a clean truncatable tail into mid-segment
             corruption. *)
          t.w_torn <- true;
          Error (Printf.sprintf "wal: append: %s" (Printexc.to_string ex))
        | () -> (
          t.w_seg_bytes <- t.w_seg_bytes + len;
          t.w_records <- t.w_records + 1;
          t.w_bytes <- t.w_bytes + len;
          Telemetry.bump Telemetry.Counter.Wal_records;
          Telemetry.add Telemetry.Counter.Wal_bytes len;
          match (t.w_durability, e) with
          | D_strict, _ -> (
            match sync_now t with
            | Ok () -> Ok ()
            | Error _ as err ->
              (* Under strict the server refuses the admission on a
                 failed fsync, so the record must not survive to be
                 replayed at recovery — cut it back off the log; if
                 even that fails, declare the tail torn so nothing can
                 land after it. *)
              (match Unix.ftruncate t.w_fd (t.w_seg_bytes - len) with
              | () ->
                t.w_seg_bytes <- t.w_seg_bytes - len;
                t.w_records <- t.w_records - 1;
                t.w_bytes <- t.w_bytes - len;
                Telemetry.add Telemetry.Counter.Wal_records (-1);
                Telemetry.add Telemetry.Counter.Wal_bytes (-len)
              | exception _ -> t.w_torn <- true);
              err)
          | D_batch, Commit _ -> sync_now t
          | _ -> Ok ()))

(* ---------------------------------------------------------------- *)
(* Compaction                                                        *)
(* ---------------------------------------------------------------- *)

let should_compact t =
  (not t.w_closed) && t.w_segments > t.w_compact_segments

(* Write the snapshot facts to [fd] as a run of bounded ['F'] records,
   relations in name order and each relation's lines in the order its
   iterator emits them.  One record buffer is reused throughout: header
   space, then the type byte and the payload, so the checksum runs over
   it in place.  A record is cut before its payload would pass
   [snapshot_record_bytes]; only a single line longer than that makes
   a record larger (the buffer grows to fit it). *)
let write_snapshot_facts fd facts =
  let buf = ref (Bytes.create (header_len + snapshot_record_bytes)) in
  let len = ref 0 (* payload bytes in the buffer *) in
  let add s =
    let n = String.length s in
    if header_len + !len + n > Bytes.length !buf then begin
      let b = Bytes.create (header_len + !len + n) in
      Bytes.blit !buf 0 b 0 (header_len + !len);
      buf := b
    end;
    Bytes.blit_string s 0 !buf (header_len + !len) n;
    len := !len + n
  in
  let flush () =
    let b = !buf in
    put_u32 b 0 !len;
    Bytes.set b 8 'F';
    put_u32 b 4 (crc32 b 8 (1 + !len));
    write_all fd b 0 (header_len + !len)
  in
  List.iter
    (fun (rel, iter) ->
      (* the payload holds a line once it is longer than [rel] *)
      let start () =
        len := 0;
        add rel
      in
      start ();
      iter (fun line ->
          if
            !len > String.length rel
            && !len + 1 + String.length line > snapshot_record_bytes
          then begin
            flush ();
            start ()
          end;
          add "\n";
          add line);
      if !len > String.length rel then flush ())
    (List.sort (fun (a, _) (b, _) -> String.compare a b) facts)

let compact_iter t ?program ~seq facts =
  if t.w_closed then Error "wal: closed"
  else
    let nseq = t.w_seg_seq + 1 in
    let final = seg_path t.w_dir nseq in
    let tmp = final ^ ".tmp" in
    match
      let fd =
        Unix.openfile tmp
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o644
      in
      let size =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
            write_all fd (Bytes.of_string magic) 0 magic_len;
            let put e =
              let b = encode_record e in
              write_all fd b 0 (Bytes.length b)
            in
            put (Anchor seq);
            (match program with Some p -> put (Rules p) | None -> ());
            write_snapshot_facts fd facts;
            (* the snapshot must be on disk before anything older goes
               away, whatever the durability mode — unlinking is the
               irreversible step *)
            Unix.fsync fd;
            (Unix.fstat fd).Unix.st_size)
      in
      Unix.rename tmp final;
      fsync_dir t.w_dir;
      (try Unix.close t.w_fd with _ -> ());
      List.iter
        (fun (s, path) ->
          if s <> nseq then try Unix.unlink path with _ -> ())
        (list_segments t.w_dir);
      fsync_dir t.w_dir;
      t.w_fd <-
        Unix.openfile final [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644;
      t.w_seg_seq <- nseq;
      t.w_seg_bytes <- size;
      t.w_segments <- 1;
      t.w_torn <- false;
      t.w_compactions <- t.w_compactions + 1;
      Telemetry.bump Telemetry.Counter.Wal_segments;
      Telemetry.bump Telemetry.Counter.Wal_compactions
    with
    | () -> Ok ()
    | exception e ->
      (* a failure before the rename leaves a partial temp file; the old
         log is untouched and stays the live one *)
      (try Unix.unlink tmp with _ -> ());
      Error (Printf.sprintf "wal: compact: %s" (Printexc.to_string e))

let compact t ?program ~seq facts =
  compact_iter t ?program ~seq
    (List.map (fun (rel, lines) -> (rel, fun emit -> List.iter emit lines)) facts)

let close t =
  if not t.w_closed then begin
    (match t.w_durability with
    | D_none -> ()
    | D_async | D_batch | D_strict -> ignore (sync_now t));
    t.w_closed <- true;
    (try Unix.close t.w_fd with _ -> ());
    drop_lock t.w_lock_fd t.w_lock_key
  end

let dir t = t.w_dir
let durability t = t.w_durability
let segments t = t.w_segments
let records t = t.w_records
let appended_bytes t = t.w_bytes
let fsyncs t = t.w_fsyncs
let compactions t = t.w_compactions
let torn t = t.w_torn
