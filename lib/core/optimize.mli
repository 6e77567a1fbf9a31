(** Compaction-order optimization (§2.4).

    The successive compactor's result depends on the order in which objects
    are compacted; optimization mode re-runs the sequence over permutations
    of the order and keeps the result the {!Rating} function likes best.

    Candidate evaluations are independent full-layout rebuilds, so every
    search here fans them out over a {!Amg_parallel.Pool} of OCaml domains.
    [?domains] picks the participant count and defaults to
    {!Amg_parallel.Pool.default_domains} (the machine's recommended domain
    count unless overridden, e.g. by [amgen --jobs]).

    Determinism contract: for a given [Env], steps and seed, every entry
    point returns the identical rating, the identical chosen order and a
    byte-identical layout for {e every} domain count — candidates are
    collected in canonical order and reduced with strict comparisons, so
    scheduling can never change the winner.  Node and evaluation counts are
    equally domain-count-independent.

    Every search builds its own candidates: orders mode and local search
    replay each order with {!apply}; the branch-and-bound DFS extends its
    parent's layout by one placement.  Nothing is shared between searches
    or calls, so a search's result and cost depend only on its inputs. *)

type step = {
  uid : int;  (** process-unique identity, allocated by {!step} *)
  obj : Amg_layout.Lobj.t;
  dir : Amg_geometry.Dir.t;
  ignore_layers : string list;
  align : Amg_compact.Successive.align;
  variable_edges : bool;
}

val step :
  ?ignore_layers:string list ->
  ?align:Amg_compact.Successive.align ->
  ?variable_edges:bool ->
  Amg_layout.Lobj.t ->
  Amg_geometry.Dir.t ->
  step
(** One [compact(obj, dir, …)] call of a module description.  Each call
    allocates a fresh [uid], so building "the same" step twice yields two
    distinct steps. *)

val apply :
  ?base:Amg_layout.Lobj.t -> Env.t -> name:string -> step list -> Amg_layout.Lobj.t
(** Run the steps in the given order against a fresh main object; every
    step compacts a fresh copy of its object, so the same steps can be
    replayed in any order.  [?base] starts from a copy of an existing
    object instead of an empty one — used to replay orders recorded from a
    language build whose entity placed shapes before its first compact. *)

val permutations : 'a list -> 'a list Seq.t
(** All permutations, lazily: forcing the head never materializes the
    tail, so taking a few orders of a long list stays cheap. *)

val step_classes :
  ?base:Amg_layout.Lobj.t -> ?rating:Rating.t -> step list -> int array
(** Mover symmetry classes: [(step_classes steps).(i)] is the index of the
    first step equivalent to step [i] ([i] itself when none comes before
    it).  Two steps are equivalent when they have equal [dir], [align],
    [ignore_layers] and [variable_edges], and objects that are equal once
    each object's nets are renamed to first-occurrence indices (shapes in
    insertion order, ports, array specs; the object name is ignored),
    while every net of both steps is private: in no other step, not in
    [?base], and not among [rating]'s [sensitive_nets].  Swapping two
    equivalent steps anywhere in an order yields the same layout under
    renamed nets, so the same rating.  Under the permissive policy every
    step is its own class. *)

val evaluate_orders :
  Env.t ->
  name:string ->
  ?base:Amg_layout.Lobj.t ->
  ?rating:Rating.t ->
  ?max_orders:int ->
  ?domains:int ->
  ?budget:Amg_robust.Budget.t ->
  step list ->
  (Amg_layout.Lobj.t * float * step list) list
(** Build and rate every order (up to [max_orders], default 720 = 6!);
    rejected orders are skipped.  The result list is in exploration
    (canonical permutation) order for any [?domains].

    [?budget] bounds the evaluation: orders are evaluated in fixed-size
    batches walking the canonical permutation order, the budget is consulted
    at batch boundaries, and the canonical order itself always runs first —
    so a budgeted call always returns at least one candidate (unless every
    order is rejected) and marks the budget
    {{!Amg_robust.Budget.degraded} degraded} when it stopped early.  With an
    injected clock or an eval cap the returned prefix is a pure function of
    the budget parameters (identical for every domain count); a real
    wall-clock deadline may additionally cut a batch short, still yielding a
    canonical-order prefix of results. *)

val optimize :
  Env.t ->
  name:string ->
  ?base:Amg_layout.Lobj.t ->
  ?rating:Rating.t ->
  ?max_orders:int ->
  ?domains:int ->
  ?budget:Amg_robust.Budget.t ->
  ?store:Amg_store.Store.t * string ->
  step list ->
  Amg_layout.Lobj.t * float * step list
(** The best order's result, its rating, and the order itself; rating ties
    go to the earliest order in exploration order.  With [?budget], the best
    of the evaluated prefix (see {!evaluate_orders}) — best-so-far when the
    budget marks degraded.

    Walks the same orders and budget batches as {!evaluate_orders} and
    returns its first minimum, but retains only the returned layout: each
    order's layout is dropped as soon as it is rated unless it is the best
    so far, so memory holds one layout (plus one in flight per domain), not
    [max_orders].

    [?store] is [(store, key)]: a durable result store plus the canonical
    key for this module instance (see {!Amg_store.Store.signature}).  On an
    exact key hit — the search strategy and its parameters are appended to
    the key internally — the stored order is replayed with {!apply} and
    the search is skipped entirely; the rating is recomputed from the
    rebuilt layout, never trusted from disk.  The store is only consulted
    for unbudgeted, default-rated searches and only written back (strictly
    better ratings win) by non-degraded ones, so results stay byte-identical
    to a store-less run.
    @raise Env.Rejected when every order is rejected. *)

val optimize_bb :
  Env.t ->
  name:string ->
  ?base:Amg_layout.Lobj.t ->
  ?rating:Rating.t ->
  ?domains:int ->
  ?budget:Amg_robust.Budget.t ->
  ?store:Amg_store.Store.t * string ->
  step list ->
  Amg_layout.Lobj.t * float * step list * int
(** Branch-and-bound over orders: same optimum as the exhaustive search,
    usually visiting far fewer nodes.  The lower bound on a partial order
    hulls the partial bounding box with the cross-axis spans of the
    remaining [`Keep] objects (those spans are invariant under placement;
    under the permissive policy, which may skip objects, the bound falls
    back to the partial box alone) and is checked both at node entry —
    pruning a whole subtree before any placement, counted as
    [optimize.bb_pruned_by_bound] — and per child ([optimize.bb_pruned])
    right after the child is placed.  A child
    is expanded only when no {!step_classes} class-mate with a lower index
    is still unplaced, so only class-canonical orders are visited; the
    returned optimum — the lexicographically first one — is always
    class-canonical, so rating, order and bytes match the exhaustive
    search.  The search decomposes into one sub-search per class-canonical
    first step, each seeded with the canonical order's rating as initial
    incumbent, and merges the sub-search winners in canonical order — the
    chosen order, rating and node count (the last component, which
    excludes class-equivalent children) are identical for every
    [?domains].

    With [?budget], an eval cap is turned into a per-sub-search node quota
    (a pure function of the cap and the number of class-canonical first
    steps): each sub-search explores a deterministic DFS prefix and returns
    its best within it, so the degraded result is identical for every
    domain count; the canonical order is always rated and is the
    guaranteed best-so-far fallback.  A real wall-clock deadline
    additionally stops sub-searches mid-DFS (best-effort).
    @raise Env.Rejected when every order is rejected. *)

val optimize_local :
  Env.t ->
  name:string ->
  ?base:Amg_layout.Lobj.t ->
  ?rating:Rating.t ->
  ?restarts:int ->
  ?seed:int ->
  ?domains:int ->
  ?budget:Amg_robust.Budget.t ->
  ?store:Amg_store.Store.t * string ->
  step list ->
  Amg_layout.Lobj.t * float * step list * int
(** Heuristic order search for step counts beyond exhaustive reach:
    steepest-descent hill climbing over pairwise swaps — each round
    evaluates the swap neighbourhood (in parallel) and accepts the
    best improving candidate, ties to the lowest swap index — with
    [restarts] deterministically shuffled starting orders ([seed] makes
    runs reproducible).  Never worse than the best starting order; not
    guaranteed optimal.  Only the returned layout is retained: a swap
    candidate that is not the round's best improvement so far drops its
    layout as soon as it is rated, so a round holds one candidate layout
    (plus one in flight per domain), not the whole neighbourhood.  A swap
    of two {!step_classes} class-mates rebuilds the current layout under
    renamed nets, so it is not rated; the trajectory is that of the full
    neighbourhood.  The last component is the number of rebuild-and-rate
    evaluations performed (class-equivalent swaps excluded), which is also
    independent of [?domains].

    With [?budget], whole rounds (and whole restarts) are refused once the
    budget is out; a round costs the number of swaps it rates, which is
    the same for every round of a step set.  An eval cap never splits a
    round, so the climbing trajectory — and the degraded best-so-far — is
    a pure function of the budget parameters for every domain count.  The
    first start is always rated, so a best-so-far exists even under a zero
    budget.  A real wall-clock deadline may additionally cut a round short
    (best-effort).
    @raise Env.Rejected when every order is rejected. *)
