(** Backtracking over topology variants (§2.1, §2.4).

    A ['a t] is a tree of alternatives.  Generator code inside a branch may
    raise {!Env.Rejected} (directly or through any primitive); that branch
    is abandoned and the next alternative tried — the paper's backtracking
    "which eases the writing of different variants of a module because no
    complex if-then-structures … have to be programmed". *)

type 'a t

val return : 'a -> 'a t

val delay : (unit -> 'a) -> 'a t
(** A single alternative, evaluated lazily; may raise {!Env.Rejected}. *)

val alt : 'a t list -> 'a t
(** Try each in order. *)

val of_list : 'a list -> 'a t

val fail : string -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t

val run :
  ?pool:Amg_parallel.Pool.t ->
  ?budget:Amg_robust.Budget.t ->
  'a t ->
  ('a, string) result list
(** Depth-first enumeration of every alternative; rejections appear as
    [Error] with the rejection message.  With [?pool], sibling
    alternatives of each [alt] reachable from the calling domain are
    evaluated concurrently (each branch sequentially within itself).  The
    result list is identical to the sequential enumeration — branch
    results are concatenated in branch order.

    Nothing is rolled back between alternatives, with or without a pool:
    branch code must only mutate layout objects it created (copying any
    shared one it means to change), so a rejected branch leaves nothing
    behind.

    With [?budget], alternatives beyond the budget are not evaluated and
    appear as [Error] entries ("budget exhausted"), in enumeration order;
    the budget is marked {{!Amg_robust.Budget.degraded} degraded}.  The
    budget is consulted at alternative boundaries (and at the pool's task
    claims under a real wall-clock deadline), so already-running branches
    always finish. *)

val successes :
  ?pool:Amg_parallel.Pool.t ->
  ?budget:Amg_robust.Budget.t ->
  'a t ->
  'a list

val failures :
  ?pool:Amg_parallel.Pool.t ->
  ?budget:Amg_robust.Budget.t ->
  'a t ->
  string list

val first : 'a t -> 'a option
(** Plain backtracking: the first alternative that survives.  The walk is
    lazy — it stops at the first leaf whose continuation succeeds, so later
    alternatives never run, under {!bind} too. *)

val first_exn : 'a t -> 'a
(** @raise Env.Rejected when every alternative is rejected. *)

val best :
  ?pool:Amg_parallel.Pool.t ->
  ?budget:Amg_robust.Budget.t ->
  rate:('a -> float) ->
  'a t ->
  ('a * float) option
(** Evaluate all surviving variants and keep the one with the lowest
    rating — §2.4's variant selection.  Ties go to the earliest variant
    in enumeration order, with or without a pool.  With [?budget], the best
    of the evaluated prefix (see {!run}). *)

val best_exn :
  ?pool:Amg_parallel.Pool.t ->
  ?budget:Amg_robust.Budget.t ->
  rate:('a -> float) ->
  'a t ->
  'a * float
(** @raise Env.Rejected when every alternative is rejected (or the budget
    refused every alternative). *)
