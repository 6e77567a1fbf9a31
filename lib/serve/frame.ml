(* [line] holds the bytes of the current line received so far; [chunk]
   holds what the last read returned, of which [pos .. len) is not yet
   consumed.  While [skipping], the current line is over the cap and its
   bytes are dropped until its newline. *)
type reader = {
  fd : Unix.file_descr;
  max : int;
  line : Buffer.t;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable skipping : bool;
}

let reader ?(max = max_int) fd =
  {
    fd;
    max;
    line = Buffer.create 512;
    chunk = Bytes.create 8192;
    pos = 0;
    len = 0;
    skipping = false;
  }

let rec newline r i =
  if i >= r.len then None
  else if Bytes.get r.chunk i = '\n' then Some i
  else newline r (i + 1)

let rec read r =
  if r.pos >= r.len then
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> `Eof
    | n ->
        r.pos <- 0;
        r.len <- n;
        read r
    | exception Unix.Unix_error (EINTR, _, _) -> read r
    | exception Unix.Unix_error ((ECONNRESET | EBADF | EPIPE), _, _) -> `Eof
  else
    let nl = newline r r.pos in
    let stop = Option.value nl ~default:r.len in
    if not r.skipping then
      if Buffer.length r.line + (stop - r.pos) > r.max then begin
        Buffer.clear r.line;
        r.skipping <- true
      end
      else Buffer.add_subbytes r.line r.chunk r.pos (stop - r.pos);
    match nl with
    | None ->
        r.pos <- r.len;
        read r
    | Some i ->
        r.pos <- i + 1;
        if r.skipping then begin
          r.skipping <- false;
          `Oversized
        end
        else begin
          let l = Buffer.contents r.line in
          Buffer.clear r.line;
          `Line l
        end

(* One write(2) per call: a write interrupted after some bytes went out
   returns their count, never EINTR, so the retry resends nothing. *)
let write fd s =
  let rec go off =
    if off < String.length s then
      match Unix.single_write_substring fd s off (String.length s - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
    | h -> h.Unix.h_addr_list.(0))
