module Wire = Amg_robust.Wire

type t = { fd : Unix.file_descr; reader : Frame.reader }

(* A signal during connect(2) leaves the connection completing in the
   background (POSIX forbids re-calling connect on the socket): wait for
   writability, then read the final status from SO_ERROR. *)
let await_connect fd =
  let rec wait () =
    match Unix.select [] [ fd ] [] (-1.) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  match Unix.getsockopt_error fd with
  | None -> ()
  | Some err -> raise (Unix.Unix_error (err, "connect", ""))

let connect_addr domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     try Unix.connect fd addr
     with Unix.Unix_error (Unix.EINTR, _, _) -> await_connect fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; reader = Frame.reader fd }

let connect path = connect_addr Unix.PF_UNIX (Unix.ADDR_UNIX path)

let connect_tcp host port =
  connect_addr Unix.PF_INET (Unix.ADDR_INET (Frame.inet_addr host, port))

(* --- bounded retry with deterministic jittered backoff ------------------

   Transient connect failures are what a client sees across a daemon
   restart: nothing is listening yet (ECONNREFUSED), the old socket file
   is gone (ENOENT), or the dying daemon reset us (ECONNRESET).  The
   backoff doubles per attempt and is jittered by a seeded LCG — the
   exact delay sequence is a pure function of [seed], so tests (and
   the serving benchmark) stay reproducible. *)

(* An exchange that reached EOF before any response byte: the daemon went
   down between accept and answer. *)
exception Closed

let closed = "connection closed"

let transient = function
  | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT), _, _)
  | Closed ->
      true
  | _ -> false

let backoff_delay ~base ~seed attempt =
  let s = ref (((seed * 2654435761) + attempt + 1) land 0x3FFFFFFF) in
  let next () =
    s := ((!s * 1664525) + 1013904223) land 0x3FFFFFFF;
    !s
  in
  let jitter = float_of_int (next () mod 1024) /. 1024. in
  base *. (2. ** float_of_int attempt) *. (0.5 +. (0.5 *. jitter))

let retrying ~attempts ~delay ~seed ?on_retry f =
  let rec go i =
    try f ()
    with e when transient e && i + 1 < attempts ->
      (match on_retry with Some f -> f (i + 1) | None -> ());
      Unix.sleepf (backoff_delay ~base:delay ~seed i);
      go (i + 1)
  in
  go 0

let connect_retry ?(attempts = 5) ?(delay = 0.05) ?(seed = 1) ?on_retry path =
  retrying ~attempts ~delay ~seed ?on_retry (fun () -> connect path)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let send_raw t s = Frame.write t.fd s
let send_line t line = send_raw t (line ^ "\n")

let recv_line t =
  match Frame.read t.reader with `Line l -> Some l | `Oversized | `Eof -> None

let send t req = send_line t (Wire.encode_request req)

let recv t =
  match recv_line t with
  | None -> Error closed
  | Some line -> Wire.decode_response line

let roundtrip t req =
  send t req;
  recv t

(* A sweep answer is a stream: zero or more row event lines, then the
   ordinary response line.  Rows are forwarded in arrival order — which
   the daemon guarantees is canonical walk order — and the first line
   that is not a row event terminates the stream. *)
let sweep t ~on_row req =
  send t req;
  let rec loop () =
    match recv_line t with
    | None -> Error closed
    | Some line -> (
        match Wire.decode_sweep_row line with
        | Some (index, row) ->
            on_row ~index row;
            loop ()
        | None -> Wire.decode_response line)
  in
  loop ()

(* Requests are idempotent (the service is deterministic), so re-dialing
   after an EOF before the answer is safe. *)
let oneshot ?(attempts = 1) ?(delay = 0.05) ?(seed = 1) path req =
  try
    retrying ~attempts ~delay ~seed (fun () ->
        let t = connect path in
        Fun.protect
          ~finally:(fun () -> close t)
          (fun () ->
            match roundtrip t req with
            | Error msg when msg = closed -> raise Closed
            | r -> r))
  with Closed -> Error closed
