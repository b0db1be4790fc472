(** Wire protocol of the resident query server ([datalog_serve]).

    A deliberately small, line-oriented, human-typeable protocol — one
    request per line, LF-terminated (a trailing CR is stripped), UTF-8
    agnostic (bytes are never interpreted).  Two requests carry a payload
    of [n] additional lines announced up front ([LOAD], [RULES]); payload
    framing is by line count, so a client never needs to escape anything.

    Server greeting on connect: {!greeting}.  Requests:

    {v
    HELLO dlserve/1              protocol version handshake (optional)
    RULES <n>                    next n lines: a Datalog program; replaces
                                 the installed program
    LOAD <rel> <n>               next n lines: whitespace-separated fields,
                                 one fact per line; atomic batch
    ASSERT <rel> <f1> <f2> ...   one fact (also: ASSERT rel(f1,f2,...))
    QUERY <rel> <p1> <p2> ...    pattern: field value or _ wildcard
                                 (also: QUERY rel(p1,p2,...))
    STATS                        server + relation statistics
    PING                         liveness probe
    SHUTDOWN                     graceful stop
    v}

    Responses are one of:

    {v
    OK [info]
    DATA <n> [info]   followed by n payload lines and a line END
    ERR <code> <message>
    v}

    A [QUERY]'s [DATA] rows are the matching tuples in the order of the
    index that served the pattern ([Relation.Reader.query]):
    lexicographic when the relation's primary serves it, which includes
    every pattern whose bound fields lead, and every all-wildcard one.

    Error codes are a closed set ({!err_code}) so clients can dispatch on
    them; hostile input must always yield a structured [ERR], never a
    dropped connection or a crash. *)

val version : string
(** Protocol version token, ["dlserve/1"]. *)

val greeting : string
(** First line the server sends on every fresh connection. *)

val max_line : int
(** Upper bound on one request/payload line in bytes; longer lines are a
    protocol error. *)

val max_batch : int
(** Upper bound on the announced payload line count of [LOAD]/[RULES]. *)

val max_batch_bytes : int
(** Upper bound on the accumulated payload bytes of one [LOAD]/[RULES]
    batch; a batch past it is rejected ([ERR proto]) and its buffered
    lines are dropped, though framing still consumes the announced line
    count. *)

(** A fact field: integers are taken literally, anything else is a symbol
    interned per engine generation. *)
type value = V_int of int | V_sym of string

(** A query pattern field: a bound value or the [_] wildcard. *)
type pat = P_any | P_val of value

type request =
  | Hello of string  (** the client's protocol version token, unvalidated *)
  | Rules of int  (** payload line count follows *)
  | Load of string * int  (** relation, payload line count *)
  | Assert_ of string * value array
  | Query of string * pat array
  | Stats
  | Ping
  | Shutdown

val parse_request : string -> (request, string) result
(** Total: every byte string yields a request or an error message, never
    an exception.  Verbs are case-insensitive; fields are split on runs of
    spaces/tabs; [rel(a,b)] atom syntax is accepted for ASSERT/QUERY. *)

val parse_fact : string -> (value array, string) result
(** Parse one [LOAD] payload line (whitespace-separated fields).  Total. *)

val value_to_string : value -> string

(** Closed error-code set carried by [ERR] responses. *)
type err_code =
  | E_parse  (** malformed request or payload line *)
  | E_proto  (** protocol violation: bad handshake, oversized line/batch *)
  | E_program  (** program rejected (syntax, safety, stratification) *)
  | E_no_program  (** request needs an installed program *)
  | E_relation  (** unknown relation *)
  | E_arity  (** field count does not match the relation's arity *)
  | E_busy  (** admission control: backpressure or chaos drill; retry *)
  | E_shutdown  (** server is draining; no further requests *)
  | E_internal  (** contained server-side failure *)

val err_name : err_code -> string
val err_of_name : string -> err_code option

type response =
  | R_ok of string  (** info, may be empty *)
  | R_data of string * string list  (** info, payload lines *)
  | R_err of err_code * string

val render : Buffer.t -> response -> unit
(** Serialise one response, including payload framing and trailing
    newlines. *)

val parse_response_line :
  string -> [ `Ok of string | `Data of int * string | `Err of string * string ]
(** Client side: classify a response status line.  Unrecognised lines come
    back as [`Err ("garbled", line)] — total, like {!parse_request}. *)
