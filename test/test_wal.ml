(* WAL durability tests: record round-trips, torn-tail truncation (the
   benign crash signature), refusal on mid-log corruption (the
   non-benign one), snapshot+tail replay equivalence, the data-dir
   lockfile, and end-to-end server recovery — graceful stop, signal
   stop, and double-start refusal. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "test-wal-%d-%d" (Unix.getpid ()) !n)
    in
    let rec rm path =
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
      | _ -> ( try Sys.remove path with Sys_error _ -> ())
      | exception Unix.Unix_error _ -> ()
    in
    rm d;
    d

let open_ok ?segment_bytes ?compact_segments ?(durability = Wal.D_none) dir =
  match Wal.open_dir ?segment_bytes ?compact_segments ~durability dir with
  | Ok wr -> wr
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m

let append_ok w e =
  match Wal.append w e with
  | Ok () -> ()
  | Error m -> Alcotest.failf "append: %s" m

(* Replay an entry list the way the server does, minus the engine:
   Anchor resets, Rules replaces, Facts accumulate (set semantics). *)
let fold_state entries =
  let prog = ref None in
  let facts = Hashtbl.create 64 in
  List.iter
    (function
      | Wal.Anchor _ ->
        prog := None;
        Hashtbl.reset facts
      | Wal.Rules p -> prog := Some p
      | Wal.Facts (rel, lines) ->
        List.iter (fun l -> Hashtbl.replace facts (rel, l) ()) lines
      | Wal.Commit _ -> ())
    entries;
  ( !prog,
    Hashtbl.to_seq_keys facts |> List.of_seq |> List.sort compare )

let seg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.sort compare

(* --- pure log ------------------------------------------------------- *)

let test_durability_names () =
  List.iter
    (fun d ->
      match Wal.durability_of_string (Wal.durability_name d) with
      | Some d' -> checkb "durability round-trips" true (d = d')
      | None -> Alcotest.failf "%s did not parse" (Wal.durability_name d))
    [ Wal.D_none; Wal.D_async; Wal.D_batch; Wal.D_strict ];
  checkb "unknown mode rejected" true
    (Wal.durability_of_string "paranoid" = None)

let test_empty_dir () =
  let dir = fresh_dir () in
  let w, rv = open_ok dir in
  checki "fresh dir has no records" 0 rv.Wal.rv_records;
  checkb "no entries" true (rv.Wal.rv_entries = []);
  checkb "no torn tail" false rv.Wal.rv_torn_tail;
  checki "gen counter starts at 0" 0 rv.Wal.rv_committed_seq;
  Wal.close w;
  (* reopening the now-existing (magic-only) segment is still empty *)
  let w, rv = open_ok dir in
  checkb "still no entries" true (rv.Wal.rv_entries = []);
  checki "one live segment" 1 (Wal.segments w);
  Wal.close w

let sample_entries =
  [
    Wal.Rules ".decl kv(a:number, b:number)\n.input kv\n";
    Wal.Facts ("kv", [ "1 2"; "3 4" ]);
    Wal.Commit 1;
    Wal.Facts ("kv", [ "5 6" ]);
    Wal.Commit 2;
  ]

let test_roundtrip () =
  let dir = fresh_dir () in
  let w, _ = open_ok dir in
  List.iter (append_ok w) sample_entries;
  checki "records counted" (List.length sample_entries) (Wal.records w);
  Wal.close w;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "entries round-trip" true (rv.Wal.rv_entries = sample_entries);
  checki "records" (List.length sample_entries) rv.Wal.rv_records;
  checki "committed seq is last commit" 2 rv.Wal.rv_committed_seq;
  checkb "clean tail" false rv.Wal.rv_torn_tail

(* --- checksums and the on-disk format ------------------------------ *)

(* The plain bitwise CRC-32 (IEEE), the reference every record checksum
   must equal, however the log computes it. *)
let reference_crc s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

(* A segment image built by hand: magic, then per record
   len:u32le crc:u32le type:u8 payload. *)
let segment_image records =
  let b = Buffer.create 256 in
  Buffer.add_string b "DLWAL001";
  List.iter
    (fun (ty, payload, crc) ->
      Buffer.add_int32_le b (Int32.of_int (String.length payload));
      Buffer.add_int32_le b (Int32.of_int crc);
      Buffer.add_char b ty;
      Buffer.add_string b payload)
    records;
  Buffer.contents b

let write_segment dir seq image =
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin
    (Filename.concat dir (Printf.sprintf "wal-%08d.log" seq))
    (fun oc -> output_string oc image)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The record checksum covers [type · payload]: a record whose type byte
   and payload spell "123456789" must carry the standard check value
   0xCBF43926.  Put in a non-final segment, such a record passes the
   checksum and is refused only for its unknown type; one bit off in
   the stored checksum and it is refused for the checksum. *)
let test_crc_check_value () =
  checki "reference check value" 0xCBF43926 (reference_crc "123456789");
  let refusal crc =
    let dir = fresh_dir () in
    write_segment dir 1 (segment_image [ ('1', "23456789", crc) ]);
    Out_channel.with_open_bin (Filename.concat dir "wal-00000002.log")
      (fun oc -> output_string oc "DLWAL001");
    match Wal.open_dir ~durability:Wal.D_none dir with
    | Ok (w, _) ->
      Wal.close w;
      Alcotest.fail "a record of unknown type was accepted"
    | Error m -> m
  in
  let m = refusal 0xCBF43926 in
  checkb ("checksum accepted: " ^ m) true (contains m "unknown record type");
  let m = refusal (0xCBF43926 lxor 1) in
  checkb ("checksum refused: " ^ m) true (contains m "checksum mismatch")

(* Records of random lengths, so they start at random offsets of the
   segment image: the log's checksum of each agrees with the reference,
   both on what it writes and on what it accepts at recovery. *)
let test_crc_random_records () =
  let st = ref 0x1E3779B97F4A7C15 in
  let next bound =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    (x land max_int) mod bound
  in
  let payloads =
    List.init 300 (fun i ->
        let len = if i < 40 then i else next 400 in
        String.init len (fun _ -> Char.chr (next 256)))
  in
  let entries = List.map (fun p -> Wal.Rules p) payloads in
  (* what the log writes *)
  let dir = fresh_dir () in
  let w, _ = open_ok dir in
  List.iter (append_ok w) entries;
  Wal.close w;
  let image =
    In_channel.with_open_bin
      (Filename.concat dir (List.hd (seg_files dir)))
      In_channel.input_all
  in
  let pos = ref 8 in
  List.iter
    (fun p ->
      let len = Int32.to_int (String.get_int32_le image !pos) in
      let crc = Int32.to_int (String.get_int32_le image (!pos + 4)) land 0xFFFFFFFF in
      checki "record length" (String.length p) len;
      checki
        (Printf.sprintf "written crc at offset %d, length %d" !pos len)
        (reference_crc (String.sub image (!pos + 8) (1 + len)))
        crc;
      pos := !pos + 9 + len)
    payloads;
  checki "segment fully walked" (String.length image) !pos;
  (* what the log accepts *)
  let dir = fresh_dir () in
  write_segment dir 1
    (segment_image
       (List.map (fun p -> ('R', p, reference_crc ("R" ^ p))) payloads));
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "no record refused" false rv.Wal.rv_torn_tail;
  checkb "every record recovered" true (rv.Wal.rv_entries = entries)

(* Two segments written by an earlier build of the log and checked in:
   the on-disk format and the checksums must stay readable as they are.
   The entries are those the images were written from. *)
let fixture_entries =
  let row i =
    Printf.sprintf "k%s%d %d"
      (String.make (i * 13 mod 29) (Char.chr (97 + (i mod 26))))
      i
      ((i * 7) - 50)
  in
  [
    Wal.Rules
      ".decl kv(k:symbol, v:number)\n.decl byv(v:number, k:symbol)\nbyv(v, k) :- kv(k, v).";
    Wal.Facts ("kv", List.init 150 row);
    Wal.Commit 1;
    Wal.Facts ("kv", List.init 150 (fun i -> row (i + 150)));
    Wal.Commit 2;
    Wal.Facts ("kv", [ "solo 1" ]);
    Wal.Facts ("kv", []);
    Wal.Commit 3;
    Wal.Anchor 3;
    Wal.Rules ".decl kv(k:symbol, v:number)";
    Wal.Facts ("kv", List.init 7 (fun i -> row (i + 300)));
    Wal.Commit 4;
  ]

(* cwd is test/ under `dune runtest` but the workspace root under
   `dune exec test/test_wal.exe`. *)
let fixture_dir =
  if Sys.file_exists "wal_fixtures" then "wal_fixtures"
  else Filename.concat "test" "wal_fixtures"

let test_checked_in_segments () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  List.iter
    (fun f ->
      let data =
        In_channel.with_open_bin (Filename.concat fixture_dir f)
          In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          output_string oc data))
    (seg_files fixture_dir);
  let w, rv = open_ok dir in
  Wal.close w;
  checki "segments" 2 rv.Wal.rv_segments;
  checkb "clean" false rv.Wal.rv_torn_tail;
  checki "committed seq" 4 rv.Wal.rv_committed_seq;
  checkb "entries as written" true (rv.Wal.rv_entries = fixture_entries)

(* A crash mid-append leaves a prefix of a record; recovery must keep
   the valid prefix of the log, physically truncate the tail, and say
   so — never fail. *)
let test_torn_tail () =
  let dir = fresh_dir () in
  let w, _ = open_ok dir in
  List.iter (append_ok w) sample_entries;
  Wal.close w;
  let seg =
    match seg_files dir with
    | [ s ] -> Filename.concat dir s
    | l -> Alcotest.failf "expected one segment, got %d" (List.length l)
  in
  let size = (Unix.stat seg).Unix.st_size in
  (* cut one byte off the final record *)
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "torn tail flagged" true rv.Wal.rv_torn_tail;
  checkb "valid prefix kept" true
    (rv.Wal.rv_entries
    = List.filteri (fun i _ -> i < List.length sample_entries - 1)
        sample_entries);
  (* the last record (9-byte header, payload "2" for [Commit 2]) is
     physically gone, not just skipped *)
  checki "file truncated to the valid prefix" (size - (9 + 1))
    (Unix.stat seg).Unix.st_size;
  (* after truncation the log is clean again and appendable *)
  let w, rv = open_ok dir in
  checkb "second recovery clean" false rv.Wal.rv_torn_tail;
  append_ok w (Wal.Commit 3);
  Wal.close w

(* Trailing garbage (a torn header) is equally truncated. *)
let test_trailing_garbage () =
  let dir = fresh_dir () in
  let w, _ = open_ok dir in
  List.iter (append_ok w) sample_entries;
  Wal.close w;
  let seg = Filename.concat dir (List.hd (seg_files dir)) in
  let fd = Unix.openfile seg [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  ignore (Unix.write_substring fd "xyz" 0 3 : int);
  Unix.close fd;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "garbage tail flagged" true rv.Wal.rv_torn_tail;
  checkb "entries intact" true (rv.Wal.rv_entries = sample_entries)

(* A corrupt record in a non-final segment is not a crash signature;
   recovery must refuse with a structured error naming the segment and
   offset, and must not touch the files. *)
let test_corrupt_mid_log_refused () =
  let dir = fresh_dir () in
  (* smallest allowed segments (4 KiB floor) + fat records force
     rotation: several segments on disk *)
  let w, _ = open_ok ~segment_bytes:1 dir in
  for i = 1 to 16 do
    append_ok w
      (Wal.Facts ("kv", [ Printf.sprintf "%d %s" i (String.make 500 'x') ]))
  done;
  Wal.close w;
  let segs = seg_files dir in
  checkb "multiple segments" true (List.length segs > 1);
  let first = Filename.concat dir (List.hd segs) in
  (* flip one payload byte past the magic and record header *)
  let off = 8 + 9 + 2 in
  let fd = Unix.openfile first [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1 : int);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  ignore (Unix.write fd b 0 1 : int);
  Unix.close fd;
  (match Wal.open_dir ~durability:Wal.D_none dir with
  | Ok (w, _) ->
    Wal.close w;
    Alcotest.fail "corrupt non-final segment did not refuse"
  | Error m ->
    checkb "error names the segment" true
      (let rec contains i =
         i + String.length (List.hd segs) <= String.length m
         && (String.sub m i (String.length (List.hd segs)) = List.hd segs
            || contains (i + 1))
       in
       contains 0);
    checkb "error says non-final" true
      (let rec contains i =
         i + 9 <= String.length m
         && (String.sub m i 9 = "non-final" || contains (i + 1))
       in
       contains 0));
  (* flip the byte back: the log must recover fully — refusal was
     non-destructive *)
  let fd = Unix.openfile first [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.write fd b 0 1 : int);
  Unix.close fd;
  let w, rv = open_ok dir in
  Wal.close w;
  checki "all records back after repair" 16 rv.Wal.rv_records

(* Same refusal driven through the chaos point: wal.recover.corrupt
   flips bytes as records are read back, so a multi-segment log fails
   recovery with the structured error — and, the chaos being read-side
   only, a quiet reopen gets everything. *)
let test_chaos_recover_corrupt () =
  let dir = fresh_dir () in
  let w, _ = open_ok ~segment_bytes:1 dir in
  for i = 1 to 16 do
    append_ok w
      (Wal.Facts ("kv", [ Printf.sprintf "%d %s" i (String.make 500 'y') ]))
  done;
  Wal.close w;
  Fun.protect ~finally:Chaos.disable @@ fun () ->
  (match Chaos.apply_spec "seed=7,points=wal.recover.corrupt:1" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "chaos spec: %s" m);
  (match Wal.open_dir ~durability:Wal.D_none dir with
  | Ok (w, _) ->
    Wal.close w;
    Alcotest.fail "chaos-corrupted recovery did not refuse"
  | Error _ -> ());
  Chaos.disable ();
  let w, rv = open_ok dir in
  Wal.close w;
  checki "quiet reopen recovers all" 16 rv.Wal.rv_records

(* Compaction rewrites the log as anchor+snapshot; replaying the
   compacted log plus its tail must reach exactly the state of
   replaying the full history. *)
let test_snapshot_tail_equivalence () =
  let dir = fresh_dir () in
  let prog = ".decl kv(a:number, b:number)\n.input kv\n" in
  let w, _ = open_ok dir in
  let history = ref [] in
  let app e =
    append_ok w e;
    history := e :: !history
  in
  app (Wal.Rules prog);
  app (Wal.Facts ("kv", [ "1 1"; "2 2" ]));
  app (Wal.Commit 1);
  app (Wal.Facts ("kv", [ "3 3" ]));
  app (Wal.Commit 2);
  (* snapshot the state as of seq 2, then keep appending a tail *)
  (match Wal.compact w ~program:prog ~seq:2 [ ("kv", [ "1 1"; "2 2"; "3 3" ]) ]
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "compact: %s" m);
  checki "compaction left one segment" 1 (Wal.segments w);
  app (Wal.Facts ("kv", [ "4 4" ]));
  app (Wal.Commit 3);
  Wal.close w;
  let w, rv = open_ok dir in
  Wal.close w;
  (match rv.Wal.rv_entries with
  | Wal.Anchor 2 :: _ -> ()
  | _ -> Alcotest.fail "compacted log does not start with its anchor");
  checkb "snapshot+tail replay equals full replay" true
    (fold_state rv.Wal.rv_entries = fold_state (List.rev !history));
  checki "gen counter resumes past the tail" 3 rv.Wal.rv_committed_seq

(* The records of a segment file as (type, payload length), walked by
   their headers: magic, then len:u32le · crc:u32le · type:u8 · payload. *)
let segment_records path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let rec walk off acc =
    if off >= String.length data then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le data off) land 0xFFFFFFFF in
      walk (off + 9 + len) ((data.[off + 8], len) :: acc)
  in
  walk 8 []

(* A snapshot is written as a run of bounded records, never one record
   per relation: the reader refuses records past its length limit, so a
   large enough relation would otherwise make its own snapshot
   unrecoverable.  8k lines of 140 bytes render to over three times the
   bound. *)
let test_snapshot_records_bounded () =
  let dir = fresh_dir () in
  let prog = ".decl kv(a:symbol, b:number)\n.input kv\n" in
  let row i = Printf.sprintf "k%04d%s %05d" i (String.make 129 'k') (i * 3) in
  (* in descending order, so a writer that sorted them would show *)
  let lines = List.init 8000 (fun i -> row (7999 - i)) in
  checkb "a line renders to 140 bytes" true
    (List.for_all (fun l -> String.length l = 140) lines);
  let w, _ = open_ok dir in
  let history = ref [] in
  let app e =
    append_ok w e;
    history := e :: !history
  in
  app (Wal.Rules prog);
  List.iteri
    (fun b chunk -> app (Wal.Facts ("kv", chunk)); app (Wal.Commit (b + 1)))
    [
      List.filteri (fun i _ -> i < 4000) lines;
      List.filteri (fun i _ -> i >= 4000) lines;
    ];
  (match Wal.compact w ~program:prog ~seq:2 [ ("kv", lines); ("none", []) ] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "compact: %s" m);
  (match seg_files dir with
  | [ seg ] ->
    let recs = segment_records (Filename.concat dir seg) in
    List.iter
      (fun (ty, len) ->
        if len > Wal.snapshot_record_bytes then
          Alcotest.failf "%C record of %d payload bytes passes the bound %d" ty
            len Wal.snapshot_record_bytes)
      recs;
    let facts = List.filter (fun (ty, _) -> ty = 'F') recs in
    checkb
      (Printf.sprintf "snapshot spans >= 3 fact records (%d)" (List.length facts))
      true
      (List.length facts >= 3);
    checkb "anchor and program come first" true
      (List.map fst recs = [ 'A'; 'R' ] @ List.map fst facts)
  | segs -> Alcotest.failf "expected one snapshot segment, found %d" (List.length segs));
  app (Wal.Facts ("kv", [ row 8000; row 3 ]));
  app (Wal.Commit 3);
  Wal.close w;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "lines come back in iterator order" true
    (List.concat_map
       (function Wal.Facts ("kv", ls) -> ls | _ -> [])
       rv.Wal.rv_entries
    = lines @ [ row 8000; row 3 ]);
  checkb "snapshot+tail replay equals full replay" true
    (fold_state rv.Wal.rv_entries = fold_state (List.rev !history))

(* Rendering runs inside compaction, so an iterator that raises is a
   failed compaction: the old log stays live, complete and appendable,
   and the partial temp file is removed at once, not at the next
   compaction or recovery. *)
let test_failed_compaction_contained () =
  let dir = fresh_dir () in
  let prog = ".decl kv(a:number, b:number)\n.input kv\n" in
  let w, _ = open_ok dir in
  let history = ref [] in
  let app e =
    append_ok w e;
    history := e :: !history
  in
  app (Wal.Rules prog);
  for b = 1 to 4 do
    app (Wal.Facts ("kv", List.init 50 (fun i -> Printf.sprintf "%d %d" b i)));
    app (Wal.Commit b)
  done;
  let compactions = Wal.compactions w and segments = Wal.segments w in
  (* enough lines before the failure that records reach the temp file *)
  let failing emit =
    for i = 0 to 9999 do
      if i = 5000 then failwith "render failed";
      emit (Printf.sprintf "%d %s" i (String.make 120 'x'))
    done
  in
  (match
     Wal.compact_iter w ~program:prog ~seq:4
       [ ("kv", fun emit -> emit "1 0"); ("kw", failing) ]
   with
  | Ok () -> Alcotest.fail "compaction with a failing iterator succeeded"
  | Error _ -> ());
  checki "wal_compactions unchanged" compactions (Wal.compactions w);
  checki "segments unchanged" segments (Wal.segments w);
  checkb "no temp file left" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".log.tmp")
       (Sys.readdir dir));
  app (Wal.Facts ("kv", [ "5 5" ]));
  app (Wal.Commit 5);
  Wal.close w;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "clean recovery" false rv.Wal.rv_torn_tail;
  checkb "old log recovers every entry and the later appends" true
    (rv.Wal.rv_entries = List.rev !history)

(* Under strict durability a record whose fsync failed must not survive
   in the log: the server refuses the admission on the error, so a
   recovery replaying the record would diverge from acked state.  The
   failed append is cut back off and the log stays clean and
   appendable. *)
let test_strict_fsync_fail_rollback () =
  let dir = fresh_dir () in
  let w, _ = open_ok ~durability:Wal.D_strict dir in
  let prog = ".decl kv(a:number, b:number)\n.input kv\n" in
  append_ok w (Wal.Rules prog);
  Fun.protect ~finally:Chaos.disable (fun () ->
      (match Chaos.apply_spec "seed=3,points=wal.fsync.fail:1" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "chaos spec: %s" m);
      match Wal.append w (Wal.Facts ("kv", [ "9 9" ])) with
      | Ok () -> Alcotest.fail "append under failing fsync did not error"
      | Error _ -> ());
  checkb "log not torn" false (Wal.torn w);
  checki "refused record not counted" 1 (Wal.records w);
  append_ok w (Wal.Facts ("kv", [ "1 1" ]));
  Wal.close w;
  let w, rv = open_ok dir in
  Wal.close w;
  checkb "clean recovery" false rv.Wal.rv_torn_tail;
  checkb "refused record absent, later append present" true
    (rv.Wal.rv_entries = [ Wal.Rules prog; Wal.Facts ("kv", [ "1 1" ]) ])

(* Group commit, counted exactly: the server's append pattern (fact
   batches, a commit marker per flip) in one segment, with the fsync
   count read before [close] adds its own flush.  [D_batch] must pay
   one fsync per commit — never one per record — and [D_strict] one per
   append. *)
let test_group_commit_fsyncs () =
  let n_facts = 40 and per_flip = 10 in
  let commits = n_facts / per_flip in
  let fsyncs durability =
    let dir = fresh_dir () in
    let w, _ = open_ok ~segment_bytes:(1 lsl 20) ~durability dir in
    for i = 1 to n_facts do
      append_ok w (Wal.Facts ("kv", [ Printf.sprintf "%d %d" i (i * 7) ]));
      if i mod per_flip = 0 then append_ok w (Wal.Commit (i / per_flip))
    done;
    checki "no rotation" 1 (Wal.segments w);
    let n = Wal.fsyncs w in
    Wal.close w;
    n
  in
  checki "none: never" 0 (fsyncs Wal.D_none);
  checki "async: only at rotation and close" 0 (fsyncs Wal.D_async);
  checki "batch: one per commit" commits (fsyncs Wal.D_batch);
  checki "strict: one per append" (n_facts + commits) (fsyncs Wal.D_strict)

let test_lockfile () =
  let dir = fresh_dir () in
  let w, _ = open_ok dir in
  (match Wal.open_dir ~durability:Wal.D_none dir with
  | Ok (w2, _) ->
    Wal.close w2;
    Wal.close w;
    Alcotest.fail "second open_dir on a held dir succeeded"
  | Error m ->
    checkb "lock error mentions the lock" true
      (let rec contains i =
         i + 4 <= String.length m
         && (String.sub m i 4 = "lock" || contains (i + 1))
       in
       contains 0));
  Wal.close w;
  let w, _ = open_ok dir in
  Wal.close w

(* --- server recovery ------------------------------------------------ *)

let fresh_addr =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "test-wal-srv-%d-%d.sock" (Unix.getpid ()) !n)
    in
    (try Sys.remove path with Sys_error _ -> ());
    match Telemetry_server.parse_addr ("unix:" ^ path) with
    | Ok a -> a
    | Error m -> Alcotest.failf "bad addr: %s" m

let durable_cfg ?(durability = Wal.D_strict) dir addr =
  {
    (Dl_server.default_config addr) with
    Dl_server.workers = 2;
    flip_pending = 32;
    flip_interval_ms = 5;
    data_dir = Some dir;
    durability;
  }

let with_client addr k =
  match Dl_client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Dl_client.close c) (fun () -> k c)

let program =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl out(a:number, b:number)\n.output out\n\
   out(x, y) :- kv(x, y).\n"

let install c =
  match Dl_client.rules c program with
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "RULES: %s %s" code m
  | Ok _ | Error _ -> Alcotest.failf "RULES: bad reply"

let assert_kv c a b =
  match Dl_client.assert_fact c "kv" [ string_of_int a; string_of_int b ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "ASSERT: %s %s" code m
  | Ok _ | Error _ -> Alcotest.failf "ASSERT: bad reply"

let query_all c =
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) -> List.sort compare rows
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "QUERY: %s %s" code m
  | Ok _ | Error _ -> Alcotest.failf "QUERY: bad reply"

let stats_field c name =
  match Dl_client.stats c with
  | Ok (Dl_client.Data (_, lines)) ->
    List.find_map
      (fun l ->
        match String.index_opt l '=' with
        | Some eq when String.sub l 0 eq = name ->
          Some (String.sub l (eq + 1) (String.length l - eq - 1))
        | _ -> None)
      lines
  | _ -> Alcotest.fail "STATS: bad reply"

(* Strict durability: stop the server (no clean shutdown ordering is
   assumed beyond the WAL contract) and a fresh server on the same dir
   must serve the program and every acked fact. *)
let test_server_recovers () =
  let dir = fresh_dir () in
  let before =
    let addr = fresh_addr () in
    match Dl_server.start (durable_cfg dir addr) with
    | Error m -> Alcotest.failf "server start: %s" m
    | Ok srv ->
      Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
      with_client addr @@ fun c ->
      install c;
      for i = 1 to 20 do
        assert_kv c i (i * 10)
      done;
      let rows = query_all c in
      (match stats_field c "durability" with
      | Some "strict" -> ()
      | v ->
        Alcotest.failf "durability=%s in STATS"
          (Option.value v ~default:"<missing>"));
      rows
  in
  checki "acked rows served before crash" 20 (List.length before);
  let addr = fresh_addr () in
  match Dl_server.start (durable_cfg dir addr) with
  | Error m -> Alcotest.failf "recovery start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    with_client addr @@ fun c ->
    let after = query_all c in
    checkb "recovered state byte-identical" true (after = before);
    (match stats_field c "recovered_records" with
    | Some v when int_of_string v > 0 -> ()
    | v ->
      Alcotest.failf "recovered_records=%s"
        (Option.value v ~default:"<missing>"));
    (* the recovered server is live: new ingest lands on top *)
    assert_kv c 999 999;
    checki "ingest on recovered state" 21 (List.length (query_all c))

(* The SIGTERM path: datalog_serve's handler calls signal_stop, which
   drains and closes (flushing) the WAL — a mid-session termination must
   leave a log that recovers every acked fact. *)
let test_signal_stop_recoverable () =
  let dir = fresh_dir () in
  let addr = fresh_addr () in
  (match Dl_server.start (durable_cfg ~durability:Wal.D_batch dir addr) with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    (with_client addr @@ fun c ->
     install c;
     for i = 1 to 10 do
       assert_kv c i i
     done;
     (* leave ingest unflipped on purpose: the close-time flush must
        still cover it *)
     ());
    Dl_server.signal_stop srv;
    Dl_server.wait srv);
  let addr = fresh_addr () in
  match Dl_server.start (durable_cfg dir addr) with
  | Error m -> Alcotest.failf "recovery start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    with_client addr @@ fun c ->
    checki "all acked facts recovered" 10 (List.length (query_all c))

let test_double_start_refused () =
  let dir = fresh_dir () in
  let addr = fresh_addr () in
  match Dl_server.start (durable_cfg dir addr) with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    (match Dl_server.start (durable_cfg dir (fresh_addr ())) with
    | Ok srv2 ->
      Dl_server.stop srv2;
      Alcotest.fail "second server took an owned data dir"
    | Error m ->
      checkb "refusal mentions the lock" true
        (let rec contains i =
           i + 4 <= String.length m
           && (String.sub m i 4 = "lock" || contains (i + 1))
         in
         contains 0));
    (* the refused start must not have broken the owner *)
    with_client addr @@ fun c ->
    install c;
    assert_kv c 1 2;
    checki "owner still serving" 1 (List.length (query_all c))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "wal"
    [
      ( "log",
        [
          tc "durability names" `Quick test_durability_names;
          tc "empty dir" `Quick test_empty_dir;
          tc "record round-trip" `Quick test_roundtrip;
          tc "crc check value" `Quick test_crc_check_value;
          tc "crc of random records" `Quick test_crc_random_records;
          tc "checked-in segments recover" `Quick test_checked_in_segments;
          tc "torn tail truncated" `Quick test_torn_tail;
          tc "trailing garbage truncated" `Quick test_trailing_garbage;
          tc "corrupt mid-log refused" `Quick test_corrupt_mid_log_refused;
          tc "chaos recover corrupt" `Quick test_chaos_recover_corrupt;
          tc "snapshot+tail equivalence" `Quick
            test_snapshot_tail_equivalence;
          tc "snapshot records bounded" `Quick test_snapshot_records_bounded;
          tc "failed compaction contained" `Quick
            test_failed_compaction_contained;
          tc "strict fsync failure rolled back" `Quick
            test_strict_fsync_fail_rollback;
          tc "group commit fsync count" `Quick test_group_commit_fsyncs;
          tc "lockfile" `Quick test_lockfile;
        ] );
      ( "recovery",
        [
          tc "server recovers acked state" `Quick test_server_recovers;
          tc "signal stop leaves recoverable log" `Quick
            test_signal_stop_recoverable;
          tc "double start refused" `Quick test_double_start_refused;
        ] );
    ]
