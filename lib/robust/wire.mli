(** Wire protocol of the generator service ([amgend]).

    Newline-delimited JSON: each request and each response is one JSON
    object on one line.  The response [status] reuses the CLI exit-code
    contract (0 ok / 1 diagnostics / 2 rejected / 3 degraded), and
    diagnostics travel in the same schema as the versioned {!Diag} report,
    so a service client and a CLI caller read the same structures.

    Encoding is deterministic: optional fields are omitted when absent,
    the remaining fields keep a fixed order, and floats print as the
    shortest round-tripping image ({!Diag.Json}).  Two equal values always
    encode to the same bytes — the serving determinism tests rely on
    it. *)

type param = Pnum of float | Pstr of string
(** Entity parameter value, like the CLI's [-p k=v] but typed: JSON
    numbers stay numbers, JSON strings stay strings. *)

type opt_mode = Orders | Bb | Local
(** Compaction-order search strategy — the one declaration the CLI, the
    daemon and the sweep share. *)

val opt_modes : (string * opt_mode) list
(** Every strategy under its name, as [--optimize] and the sweep spec's
    ["optimize"] spell it. *)

val opt_to_string : opt_mode -> string
val opt_of_string : string -> opt_mode option

type payload_format = Cif | Svg | No_payload
(** What layout rendering the response should carry. *)

type op = Build | Sweep | Ping | Stop | Metrics | Health
(** [Build] generates a module; [Sweep] runs a bounded parameter-grid
    sweep server-side, streaming one {!encode_sweep_row} event per result
    line before the final response; [Ping] answers immediately (liveness);
    [Stop] asks the daemon to shut down gracefully.  [Metrics] and
    [Health] are scrape ops: the daemon answers them without entering
    the compute queue — [Metrics] with a registry snapshot (Prometheus
    text, or JSON when the request sets [json]), [Health] with a small
    JSON liveness object (uptime, in-flight, queue depth, memo entries,
    pool size). *)

type request = {
  id : string option;  (** Echoed verbatim in the response. *)
  op : op;
  entity : string;  (** Entity name; ignored for ping/stop. *)
  params : (string * param) list;
  optimize : opt_mode option;
  max_evals : int option;  (** Per-request {!Budget} eval cap. *)
  max_time : float option;  (** Per-request deadline, seconds. *)
  jobs : int option;  (** Domains for the search pool. *)
  tenant : string option;  (** Memo scope; [None] = shared default. *)
  format : payload_format;
  permissive : bool;  (** Per-request {!Policy} mode. *)
  stats : bool;
      (** Ask for timing counters in the response.  Responses with
          [stats = false] are byte-deterministic; the stats object is the
          one deliberately nondeterministic field. *)
  json : bool;
      (** For [Metrics]: answer with the JSON encoding of the registry
          snapshot instead of the Prometheus text exposition. *)
  inject : string option;
      (** Fault-injection spec ([site@hit,...]), for drills and tests. *)
  spec : string option;
      (** For [Sweep]: the sweep spec document (JSON text), verbatim. *)
}

val build :
  ?id:string ->
  ?params:(string * param) list ->
  ?optimize:opt_mode ->
  ?max_evals:int ->
  ?max_time:float ->
  ?jobs:int ->
  ?tenant:string ->
  ?format:payload_format ->
  ?permissive:bool ->
  ?stats:bool ->
  ?inject:string ->
  string ->
  request
(** [build entity] is a build request (default format [Cif]). *)

val sweep :
  ?id:string -> ?jobs:int -> ?tenant:string -> ?stats:bool -> string -> request
(** [sweep spec] runs the spec document server-side; the daemon streams
    the result file line by line as row events, then the response. *)

val ping : ?id:string -> unit -> request
val stop : ?id:string -> unit -> request

val metrics : ?id:string -> ?json:bool -> unit -> request
(** Scrape the metrics registry ([json] defaults to [false]:
    Prometheus text). *)

val health : ?id:string -> unit -> request
(** Liveness/readiness probe. *)

type server_stats = {
  elapsed_ms : float;  (** Wall time inside the request handler. *)
  queue_depth : int;  (** Requests ahead in the queue at admission. *)
}

type response = {
  id : string option;
  status : int;  (** 0 ok / 1 diagnostics / 2 rejected / 3 degraded. *)
  rating : float option;  (** Rating of the emitted layout. *)
  format : payload_format;
  payload : string option;  (** CIF or SVG text per [format]. *)
  diagnostics : Diag.t list;
  stats : server_stats option;
}

val status_ok : int
val status_diag : int
val status_reject : int
val status_degraded : int

val response :
  ?id:string ->
  ?rating:float ->
  ?format:payload_format ->
  ?payload:string ->
  ?diagnostics:Diag.t list ->
  ?stats:server_stats ->
  int ->
  response
(** [response status] builds a response value (default [No_payload]). *)

val encode_request : request -> string
(** One line of JSON, without the trailing newline. *)

val decode_request : string -> (request, string) Stdlib.result
val encode_response : response -> string
val decode_response : string -> (response, string) Stdlib.result

val encode_sweep_row : index:int -> string -> string
(** One streamed sweep output line ([index] counts from 0 and includes
    the two header lines), as one JSON object on one line. *)

val decode_sweep_row : string -> (int * string) option
(** Recognise a sweep row event; [None] means the line is something else
    (in particular the final response). *)
