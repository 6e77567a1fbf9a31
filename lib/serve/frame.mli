(** Newline-delimited frames over a socket: the one line codec of the
    daemon and the client, and the host resolver both dial and bind
    with.

    Both ends retry [EINTR], so a signal reaching a thread blocked in a
    read or a write never ends the exchange.  A reset or closed peer
    ([ECONNRESET], [EPIPE], [EBADF]) reads as [`Eof]. *)

type reader

val reader : ?max:int -> Unix.file_descr -> reader
(** A buffered reader of [fd].  With [max], a line longer than [max]
    bytes (newline excluded) is discarded up to and including its
    newline and read as one [`Oversized], and the stream resumes at the
    next line; without it every line comes back whole. *)

val read : reader -> [ `Line of string | `Oversized | `Eof ]
(** The next line without its newline.  Bytes after the last newline
    are dropped at end of stream. *)

val write : Unix.file_descr -> string -> unit
(** Write every byte of the string.  @raise Unix.Unix_error on a
    failed write other than [EINTR]. *)

val inet_addr : string -> Unix.inet_addr
(** A dotted address as is, else the host's first address, else the
    loopback address.  @raise Not_found when the host is unknown. *)
