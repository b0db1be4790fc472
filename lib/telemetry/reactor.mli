(** One domain that owns a listener and its connections, multiplexed over
    one [Unix.select] with a self-pipe stop; both resident servers run on
    it.  It only does socket plumbing, without blocking: accepting up to a
    cap, framing input into lines, flushing per-connection output queues.
    Each server passes in its {!hooks}, all run on the reactor's domain. *)

type t
type conn

type session = {
  line : string -> unit;  (** a complete line, without LF or CR-LF *)
  overlong : unit -> unit;  (** the unended tail passed [max_line]; dropped *)
  ready : unit -> unit;  (** polled readable, before the read; may close *)
  closed : unit -> unit;  (** once, when the connection closes *)
}

type hooks = {
  accept : full:bool -> conn -> (session, string) result;
      (** [full]: the cap is reached; [Error line] sends [line] and closes *)
  tick : t -> float option;
      (** each iteration: the select timeout, or [None] to leave the loop *)
  stop : unit -> unit;  (** {!signal_stop} was called *)
  finish : unit -> unit;
      (** after the loop has closed every session and the listener *)
}

val start :
  ?unlink:string -> max_conns:int -> max_line:int -> Unix.file_descr ->
  (unit -> hooks) -> t
(** Take over a listener, spawn the domain, build the hooks there.
    [unlink] is the socket path to remove on shutdown. *)

val send : conn -> string -> unit
(** Queue output and write what the socket takes now.  No-op once closed. *)

val close_after_flush : conn -> unit
(** Deliver no more input; close once the output queue is empty. *)

val close : conn -> unit
(** Close now, dropping queued output.  Idempotent. *)

val flushed : t -> bool
(** Every output queue is empty. *)

val signal_stop : t -> unit
(** One self-pipe write, safe from a signal handler. *)

val wait : t -> unit
(** Join the domain, re-raising what escaped it.  Idempotent.  Until the
    domain is done, the caller wakes every 10 ms, so a signal handler
    that calls {!signal_stop} runs while it waits. *)
