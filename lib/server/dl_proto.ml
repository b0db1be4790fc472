(* Line protocol of the resident query server.

   Everything here is total: the parse functions classify arbitrary byte
   strings and never raise, because the fuzz contract of the server is
   "hostile input yields a structured ERR, never a crash".  The only
   stateful thing in this module is nothing — framing state (payload
   line counting) lives in the session layer. *)

let version = "dlserve/1"
let greeting = "DLSERVE/1 ready"

(* One line: generous enough for wide facts and long rule lines, small
   enough that a hostile client cannot balloon a session buffer. *)
let max_line = 64 * 1024

(* Payload batches: LOAD/RULES announce their line count up front; this
   caps what a client can make the server commit to buffering. *)
let max_batch = 1_000_000

(* The line count alone still admits max_batch lines of up to max_line
   bytes each, so the accumulated byte size of one batch is capped too;
   past it the batch is poisoned and nothing further is buffered. *)
let max_batch_bytes = 16 * 1024 * 1024

type value = V_int of int | V_sym of string
type pat = P_any | P_val of value

type request =
  | Hello of string
  | Rules of int
  | Load of string * int
  | Assert_ of string * value array
  | Query of string * pat array
  | Stats
  | Ping
  | Shutdown

(* --------------------------------------------------------------- *)
(* Tokenising                                                       *)
(* --------------------------------------------------------------- *)

let is_ws c = c = ' ' || c = '\t'

let tokens s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_ws s.[!i] do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_ws s.[!i]) do
        incr i
      done;
      out := String.sub s start (!i - start) :: !out
    end
  done;
  List.rev !out

(* Relation names are identifiers — same lexical class the Datalog parser
   accepts — so a malformed name fails here rather than deep inside the
   engine. *)
let is_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* [int_of_string] accepts only an optional sign then a digit (a base
   prefix starts with [0] too), so any other first byte is a symbol; the
   check skips the exception [int_of_string_opt] raises and catches
   inside for every symbol token. *)
let value_of_token t =
  match if t = "" then ' ' else t.[0] with
  | '0' .. '9' | '-' | '+' -> (
    match int_of_string_opt t with Some i -> V_int i | None -> V_sym t)
  | _ -> V_sym t

let pat_of_token t = if t = "_" then P_any else P_val (value_of_token t)

let value_to_string = function V_int i -> string_of_int i | V_sym s -> s

(* [rel(a,b,c)] sugar: when the argument tail of ASSERT/QUERY starts with
   a token containing '(', re-split the whole tail on '(' ',' ')'.  A
   field may not contain interior whitespace: the space-separated form
   cannot express such a value, and neither can the WAL, whose fact
   records re-tokenise on whitespace at recovery — admitting one would
   make an acked fact unreplayable. *)
let split_atom_form rest =
  let buf = Buffer.create 32 in
  let fields = ref [] in
  let depth = ref 0 in
  let bad = ref None in
  let flush () =
    let f = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if f <> "" then begin
      if String.exists is_ws f then
        bad := Some (Printf.sprintf "whitespace inside field %S" f);
      fields := f :: !fields
    end
  in
  String.iter
    (fun c ->
      match c with
      | '(' ->
        incr depth;
        if !depth > 1 then bad := Some "nested parentheses"
        else flush ()
      | ')' ->
        decr depth;
        if !depth < 0 then bad := Some "unbalanced parentheses" else flush ()
      | ',' -> if !depth = 1 then flush () else bad := Some "comma outside atom"
      | c -> Buffer.add_char buf c)
    rest;
  flush ();
  if !depth <> 0 then bad := Some "unbalanced parentheses";
  match (!bad, List.rev !fields) with
  | Some m, _ -> Error m
  | None, [] -> Error "empty atom"
  | None, rel :: args -> Ok (rel, args)

(* The argument part of ASSERT/QUERY: either space-separated tokens after
   the relation name, or a single rel(a,b) atom. *)
let parse_rel_args rest_tokens rest_raw =
  if String.contains rest_raw '(' then split_atom_form rest_raw
  else
    match rest_tokens with
    | rel :: args -> Ok (rel, args)
    | [] -> Error "missing relation name"

let parse_count tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 && n <= max_batch -> Ok n
  | Some n when n > max_batch ->
    Error (Printf.sprintf "batch of %d exceeds max %d" n max_batch)
  | _ -> Error (Printf.sprintf "bad count %S" tok)

let parse_request line =
  match tokens line with
  | [] -> Error "empty request"
  | verb :: rest -> (
    let raw_rest =
      (* the raw tail of the line after the verb, for atom-form parsing *)
      let n = String.length line in
      let i = ref 0 in
      while !i < n && is_ws line.[!i] do incr i done;
      while !i < n && not (is_ws line.[!i]) do incr i done;
      String.trim (String.sub line !i (n - !i))
    in
    match (String.uppercase_ascii verb, rest) with
    | "HELLO", [ v ] -> Ok (Hello v)
    | "HELLO", _ -> Error "usage: HELLO <proto-version>"
    | "PING", [] -> Ok Ping
    | "STATS", [] -> Ok Stats
    | "SHUTDOWN", [] -> Ok Shutdown
    | ("PING" | "STATS" | "SHUTDOWN"), _ :: _ ->
      Error (Printf.sprintf "%s takes no arguments" (String.uppercase_ascii verb))
    | "RULES", [ n ] -> Result.map (fun n -> Rules n) (parse_count n)
    | "RULES", _ -> Error "usage: RULES <n-lines>"
    | "LOAD", [ rel; n ] ->
      if not (is_ident rel) then Error (Printf.sprintf "bad relation name %S" rel)
      else Result.map (fun n -> Load (rel, n)) (parse_count n)
    | "LOAD", _ -> Error "usage: LOAD <rel> <n-facts>"
    | "ASSERT", _ -> (
      match parse_rel_args rest raw_rest with
      | Error m -> Error m
      | Ok (rel, args) ->
        if not (is_ident rel) then
          Error (Printf.sprintf "bad relation name %S" rel)
        else if args = [] then Error "ASSERT needs at least one field"
        else Ok (Assert_ (rel, Array.of_list (List.map value_of_token args))))
    | "QUERY", _ -> (
      match parse_rel_args rest raw_rest with
      | Error m -> Error m
      | Ok (rel, args) ->
        if not (is_ident rel) then
          Error (Printf.sprintf "bad relation name %S" rel)
        else Ok (Query (rel, Array.of_list (List.map pat_of_token args))))
    | v, _ ->
      Error
        (Printf.sprintf
           "unknown verb %S (try HELLO RULES LOAD ASSERT QUERY STATS PING \
            SHUTDOWN)"
           v))

let parse_fact line =
  match tokens line with
  | [] -> Error "empty fact line"
  | ts -> Ok (Array.of_list (List.map value_of_token ts))

(* --------------------------------------------------------------- *)
(* Responses                                                        *)
(* --------------------------------------------------------------- *)

type err_code =
  | E_parse
  | E_proto
  | E_program
  | E_no_program
  | E_relation
  | E_arity
  | E_busy
  | E_shutdown
  | E_internal

let err_name = function
  | E_parse -> "parse"
  | E_proto -> "proto"
  | E_program -> "program"
  | E_no_program -> "no-program"
  | E_relation -> "relation"
  | E_arity -> "arity"
  | E_busy -> "busy"
  | E_shutdown -> "shutdown"
  | E_internal -> "internal"

let all_errs =
  [
    E_parse; E_proto; E_program; E_no_program; E_relation; E_arity; E_busy;
    E_shutdown; E_internal;
  ]

let err_of_name s = List.find_opt (fun e -> err_name e = s) all_errs

type response =
  | R_ok of string
  | R_data of string * string list
  | R_err of err_code * string

(* Responses are single lines by construction: scrub any newline a
   message might smuggle in (e.g. quoting hostile input back). *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let render buf = function
  | R_ok "" -> Buffer.add_string buf "OK\n"
  | R_ok info ->
    Buffer.add_string buf "OK ";
    Buffer.add_string buf (one_line info);
    Buffer.add_char buf '\n'
  | R_err (code, msg) ->
    Buffer.add_string buf "ERR ";
    Buffer.add_string buf (err_name code);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (one_line msg);
    Buffer.add_char buf '\n'
  | R_data (info, lines) ->
    Buffer.add_string buf "DATA ";
    Buffer.add_string buf (string_of_int (List.length lines));
    if info <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf (one_line info)
    end;
    Buffer.add_char buf '\n';
    List.iter
      (fun l ->
        Buffer.add_string buf (one_line l);
        Buffer.add_char buf '\n')
      lines;
    Buffer.add_string buf "END\n"

let parse_response_line line =
  match tokens line with
  | "OK" :: rest -> `Ok (String.concat " " rest)
  | "DATA" :: n :: rest -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> `Data (n, String.concat " " rest)
    | _ -> `Err ("garbled", line))
  | "ERR" :: code :: rest -> `Err (code, String.concat " " rest)
  | _ -> `Err ("garbled", line)
