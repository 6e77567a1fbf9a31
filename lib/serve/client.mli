(** Minimal blocking client for the generator service.

    One connection carries any number of request/response exchanges; the
    daemon answers on the same connection in request order, so a
    closed-loop caller can simply alternate {!send} and {!recv}.  Lines
    go through the daemon's own codec ({!Frame}) with no byte cap, and a
    signal never ends a read or a write. *)

type t

val connect : string -> t
(** Connect to a Unix-domain socket path.  A signal arriving mid-connect
    is handled (the completion is awaited), not surfaced as [EINTR].
    @raise Unix.Unix_error when the daemon is not listening. *)

val connect_tcp : string -> int -> t
(** Connect to the optional TCP listener; the host is resolved as the
    daemon resolves its own ({!Frame.inet_addr}). *)

val connect_retry :
  ?attempts:int ->
  ?delay:float ->
  ?seed:int ->
  ?on_retry:(int -> unit) ->
  string ->
  t
(** {!connect} with bounded retry on transient failures — ECONNREFUSED,
    ECONNRESET and ENOENT, the three shapes of "the daemon is
    restarting".  Up to [attempts] (default 5) tries, sleeping an
    exponentially growing, deterministically jittered delay (base
    [delay], default 50 ms; jitter is a pure function of [seed]) between
    them; [on_retry] is called with the retry number before each sleep.
    The last failure is re-raised unchanged. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Write one raw request line (the newline is appended).  For protocol
    tests that need to send malformed frames. *)

val send_raw : t -> string -> unit
(** Write raw bytes with no newline — for truncated-frame tests. *)

val recv_line : t -> string option
(** Read one raw response line; [None] on EOF. *)

val send : t -> Amg_robust.Wire.request -> unit

val recv : t -> (Amg_robust.Wire.response, string) Stdlib.result
(** Decode the next response line; [Error] on EOF or malformed JSON. *)

val roundtrip :
  t -> Amg_robust.Wire.request -> (Amg_robust.Wire.response, string) Stdlib.result

val sweep :
  t ->
  on_row:(index:int -> string -> unit) ->
  Amg_robust.Wire.request ->
  (Amg_robust.Wire.response, string) Stdlib.result
(** Exchange one sweep request ({!Amg_robust.Wire.sweep}): forward every
    streamed row event to [on_row] — [index] counts output lines from 0
    (the schema header, the column line, then the data rows) in
    canonical walk order — and return the final response that follows
    the stream.  [Error] on EOF or a malformed final line. *)

val oneshot :
  ?attempts:int ->
  ?delay:float ->
  ?seed:int ->
  string ->
  Amg_robust.Wire.request ->
  (Amg_robust.Wire.response, string) Stdlib.result
(** Connect to a socket path, exchange one request, close.  With
    [attempts > 1] (default 1: fail fast), transient connect failures
    and an EOF before any response byte are retried by {!connect_retry}'s
    own backoff loop — enough for a
    client to ride through a daemon restart.  Requests are idempotent
    (the service is deterministic), so a re-send never changes the
    answer. *)
