(** Interpreter for the procedural layout description language.

    Entity bodies build an implicit current object through the primitive
    functions; [compact(obj, DIR, layers…)] places sub-objects with the
    successive compactor; assignment of an object value copies its data
    structure; [CHOOSE]/[ORELSE] backtracks over design-rule rejections.

    Runtime failures raise {!Amg_robust.Diag.Fail} carrying a structured
    diagnostic (subsystem [Lang], codes under ["lang.run."]). *)

type ctx
(** Interpreter context: environment, program, and collected PRINT output. *)

type frame

type recorded = {
  base : Amg_layout.Lobj.t;
      (** Copy of the entity's object just before its first top-level
          compact (shapes drawn before any compact end up here). *)
  steps : Amg_core.Optimize.step list;
      (** The entity's top-level compacts, in execution order, each with a
          frozen copy of its moving object — ready for
          {!Amg_core.Optimize.apply} / [optimize]. *)
}
(** A replayable record of an entity build, captured by
    {!build_recorded}. *)

val create_ctx : Amg_core.Env.t -> Ast.program -> ctx

val output : ctx -> string
(** Everything PRINT produced. *)

val run : Amg_core.Env.t -> Ast.program -> ctx * (string, Value.t) Hashtbl.t
(** Execute the top-level statements; returns the context and the top-level
    variable bindings (generated objects among them). *)

val build :
  Amg_core.Env.t ->
  Ast.program ->
  string ->
  (string * Value.t) list ->
  Amg_layout.Lobj.t
(** [build env program entity args] instantiates one entity with keyword
    arguments and returns its layout object.
    @raise Amg_robust.Diag.Fail on type or arity errors, unknown entities.
    @raise Amg_core.Env.Rejected when generation fails every variant. *)

val build_recorded :
  Amg_core.Env.t ->
  Ast.program ->
  string ->
  (string * Value.t) list ->
  Amg_layout.Lobj.t * (recorded, string) result
(** {!build}, additionally recording the entity's top-level compacts for
    order optimization.  The layout is always the normal build result; the
    second component is [Ok] only when a replay would be faithful — the
    entity ran at least two top-level compacts and drew no shapes between
    or after them (ports are fine; they are transplanted separately).
    Otherwise [Error reason] explains why the build cannot be reordered. *)

val parse_and_build :
  ?file:string ->
  Amg_core.Env.t ->
  string ->
  string ->
  (string * Value.t) list ->
  Amg_layout.Lobj.t
(** Parse source text, then {!build}.  [?file] names the source in parse
    diagnostics. *)
