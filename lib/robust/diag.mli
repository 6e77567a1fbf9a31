(** Typed diagnostics: the one error currency of the whole generator.

    Every user-facing failure carries a stable error [code], a [severity], the
    [subsystem] that raised it, an optional source [span] (for language and
    technology files), an optional remediation [hint] and a structured string
    [payload].  Raise sites use {!fail} / {!failf}; process boundaries catch
    {!Fail} (or call {!guard}) and render with {!pp} or {!to_json}.

    [Env.Rejected] is {e not} a diagnostic: it is the backtracking control
    flow of the variant engine and must keep flowing through [CHOOSE]. *)

type severity = Error | Warning | Info

type subsystem =
  | Lang
  | Tech
  | Geometry
  | Layout
  | Compact
  | Route
  | Optimize
  | Parallel
  | Drc
  | Extract
  | Synth
  | Cli
  | Store
  | Internal

type span = { file : string option; line : int; col : int }
(** 1-based line and column; [col = 0] means "column unknown". *)

type t = {
  code : string;  (** stable dotted identifier, e.g. ["lang.parse.expected"] *)
  severity : severity;
  subsystem : subsystem;
  message : string;
  span : span option;
  hint : string option;
  payload : (string * string) list;
}

exception Fail of t

val severity_to_string : severity -> string
val severity_of_string : string -> severity option
val subsystem_to_string : subsystem -> string
val subsystem_of_string : string -> subsystem option

val span : ?file:string -> ?col:int -> int -> span
(** [span ?file ?col line] builds a source span. *)

val v :
  ?severity:severity ->
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  string ->
  t
(** Build a diagnostic value (default severity [Error]). *)

val fail :
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  string ->
  'a
(** Raise {!Fail} with an [Error]-severity diagnostic. *)

val failf :
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Like {!fail} with a format string for the message. *)

val line_of : t -> int
(** Line of the span, or 0 when the diagnostic has no span. *)

val col_of : t -> int
(** Column of the span, or 0 when unknown. *)

val equal : t -> t -> bool
val pp_span : Format.formatter -> span -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val guard : ?convert:(exn -> t option) -> (unit -> 'a) -> ('a, t) Stdlib.result
(** [guard f] runs [f] and catches {!Fail} as [Error d].  [?convert] maps
    other exceptions to diagnostics; exceptions it declines (and asynchronous
    ones like [Out_of_memory]) are re-raised with their backtrace. *)

val to_json : t -> string
(** Single-line JSON object for one diagnostic. *)

val list_to_json : ?degraded:bool -> t list -> string
(** Report document: [{"version":1,"degraded":bool,"diagnostics":[...]}]. *)

val of_json : string -> (t, string) Stdlib.result
val list_of_json : string -> (bool * t list, string) Stdlib.result
(** Parse a report document back; returns [(degraded, diagnostics)]. *)

(** {1 Generic JSON values}

    The repository's one JSON reader and writer: the report documents,
    the serving wire protocol ({!Wire}), sweep headers, the access log,
    trace export and validation, and the benchmark baseline all go
    through it.  The writer is deterministic: object fields are emitted
    in construction order and each float prints as the shortest image
    that parses back to the same value, so equal values always
    serialize to equal bytes. *)
module Json : sig
  type t =
    | Jnull
    | Jbool of bool
    | Jnum of float
    | Jstr of string
    | Jarr of t list
    | Jobj of (string * t) list

  val of_string : string -> (t, string) Stdlib.result
  (** Parse one complete JSON document (rejects trailing garbage).
      Strings decode to UTF-8: a [\u] escape takes exactly four hex
      digits, a surrogate pair becomes one 4-byte sequence, and a lone
      surrogate is an error. *)

  val to_buffer : Buffer.t -> t -> unit
  val to_string : t -> string

  val member : string -> t -> t option
  (** Object field lookup; [None] on non-objects and missing keys. *)

  val str : t -> string option
  val num : t -> float option
  val int : t -> int option
  val bool : t -> bool option
end

val to_value : t -> Json.t
(** The diagnostic as a JSON value; {!to_json} and {!list_to_json} are
    its {!Json.to_string} images. *)

val of_value : Json.t -> (t, string) Stdlib.result
