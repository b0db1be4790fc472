(** Blocking line-protocol client for {!Dl_server} ([fetch]-style: small,
    synchronous, self-contained), used by the tests, the CI selftest, the
    stress harness's server scenario and [datalog_cli --connect].

    One {!t} is one session; it is not thread-safe — give each domain its
    own connection (that is the server's unit of isolation anyway). *)

type t

val connect :
  ?timeout_s:float -> Telemetry_server.addr -> (t, string) result
(** Connect and consume the server greeting.  [timeout_s] (default 30)
    bounds every subsequent send/receive. *)

val close : t -> unit
(** Idempotent. *)

(** A complete server reply.  [Err (code, msg)] carries the wire error
    code (see {!Dl_proto.err_code}; unknown codes pass through). *)
type reply =
  | Ok_ of string
  | Data of string * string list  (** info, payload rows *)
  | Err of string * string

val request : t -> string -> (reply, string) result
(** Send one already-formatted request line and read the full reply
    (including a [DATA] payload).  [Error] means the transport failed —
    closed/dropped connection, timeout, or a garbled reply; protocol-level
    rejections come back as [Ok (Err _)]. *)

(** {2 Reconnect/retry sessions}

    A {!session} wraps an address with a lazily-established connection
    and a bounded-retry policy for {e connection-level} failures only:
    connect errors and transport faults (closed/dropped/garbled) are
    retried over a fresh connection with seeded jittered exponential
    backoff; a structured [ERR] reply is {e never} retried — it is the
    server's answer (retrying [ERR busy] here would defeat admission
    control; back off at the call site instead). *)

type session

val session :
  ?attempts:int ->
  ?backoff_ms:float ->
  ?seed:int ->
  ?timeout_s:float ->
  Telemetry_server.addr ->
  session
(** [attempts] (default 10) bounds tries per {!retry} call; [backoff_ms]
    (default 2) is the base delay, doubled per failure (capped) and
    scaled by a jitter in [0.5, 1.5) drawn from a deterministic stream
    seeded by [seed].  No IO happens until the first {!retry}. *)

val retry : session -> (t -> (reply, string) result) -> (reply, string) result
(** Run one request against the session's connection, (re)connecting as
    needed.  [Error] only after the attempt budget is spent (the message
    carries the last failure).  A retried request is re-sent whole, and
    the resident server only applies fully-parsed requests, so a request
    severed mid-send is never half-applied.  But a retry is
    {e at-least-once}, not exactly-once: if the server applied the
    request and the connection died before [OK] arrived, the retry
    applies it again.  RULES and QUERY are idempotent so this is
    invisible; LOAD/ASSERT are not — a replayed batch duplicates rows in
    the server's base-fact store and inflates its queued/row counters
    (query {e results} are unaffected only because the engine's
    relations are sets).  Callers that need exact row accounting must
    make retried facts unique or avoid retrying ingest.
    Not thread-safe, like {!t}. *)

val disconnect : session -> unit
(** Drop the cached connection (the next {!retry} reconnects).
    Idempotent; also the session's destructor. *)

val with_retry :
  ?attempts:int ->
  ?backoff_ms:float ->
  ?seed:int ->
  ?timeout_s:float ->
  Telemetry_server.addr ->
  (session -> 'a) ->
  'a
(** [with_retry addr f]: {!session}, run [f], {!disconnect} on every
    exit path. *)

val hello : t -> (reply, string) result
val ping : t -> (reply, string) result
val stats : t -> (reply, string) result
val shutdown : t -> (reply, string) result

val rules : t -> string -> (reply, string) result
(** Install a program from source text (split on newlines). *)

val load : t -> string -> string list -> (reply, string) result
(** [load t rel rows]: batch-load pre-rendered fact lines. *)

val assert_fact : t -> string -> string list -> (reply, string) result
(** [assert_fact t rel fields]. *)

val query : t -> string -> string list -> (reply, string) result
(** [query t rel patterns] — a pattern field is a value or ["_"]. *)
