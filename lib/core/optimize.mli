(** Compaction-order optimization (§2.4).

    The successive compactor's result depends on the order in which objects
    are compacted; optimization mode re-runs the sequence over permutations
    of the order and keeps the result the {!Rating} function likes best.

    An evaluation is one rated candidate: a layout built for one order
    and rated.  Evaluations are independent of each other, so every
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

    Every search builds its own candidates: orders mode and
    branch-and-bound are one depth-first walk that extends its parent's
    layout by one placement ({!search}); local search resumes each group
    of swaps from a copy of the incumbent's layout at the swap depth and
    branches off one shared spine per group ({!optimize_local}).  Nothing is
    shared between searches or calls, so a search's result and cost
    depend only on its inputs.

    Workers no longer copy step objects.  Every worker reads the same
    step objects: a placement reads its step's object through a
    displacement ({!Amg_compact.Successive.compact_readonly}) and writes
    its shapes only into the worker's own main object.  The object is
    copied only for a placement that must shrink one of its variable
    edges or auto-connect to it.  A search leaves every step object as
    it was, and its [?base] too: it reads and copies a private copy of
    the base, whose cut blocks it expands once, at its start.

    Each step carries its object's digest ({!Amg_compact.Successive.digest}),
    built once by {!step}: every placement of the step, on every domain,
    reads the mover's per-layer shapes, leading sides and flags from it.
    Each search ({!search}, {!optimize_local}) also builds one class
    table ({!Amg_compact.Successive.classes}) over every layer its base
    and steps can bring into a main, before it fans out; its scans read
    layer-pair classes from it.  {!apply} and a store hit, which place
    each step once, classify per scan instead. *)

type step = {
  uid : int;  (** process-unique identity, allocated by {!step} *)
  obj : Amg_layout.Lobj.t;
  digest : Amg_compact.Successive.digest;
      (** [obj]'s digest along [dir], built by {!step} *)
  dir : Amg_geometry.Dir.t;
  ignore_layers : string list;
  align : Amg_compact.Successive.align;
  variable_edges : bool;
  nets : string list;
      (** every net [obj] carries (shapes, cut arrays, ports), sorted,
          each once, worked out by {!step} *)
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
    distinct steps.  [obj] is the step's from now on: every search reads it
    from every domain, so it must not be mutated afterwards — the step's
    digest, built here, would no longer describe it — nor queried.  Its
    hull caches are filled here ({!Amg_layout.Lobj.fill_caches}), so
    those reads never write.  A placement reads the object's shapes
    through the digest and copies the object before it queries it, so
    the object's spatial indexes are never read: they are released
    ({!Amg_layout.Lobj.release_indexes}), which saves about half of a
    step object's memory. *)

val apply :
  ?base:Amg_layout.Lobj.t -> Env.t -> name:string -> step list -> Amg_layout.Lobj.t
(** Run the steps in the given order against a fresh main object; every
    step's object is only read, so the same steps can be replayed in any
    order.  [?base] starts from a copy of an existing
    object instead of an empty one — used to replay orders recorded from a
    language build whose entity placed shapes before its first compact. *)

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
    neighbourhood.  The last component is the number of evaluations
    (rated candidates, class-equivalent swaps excluded), which is also
    independent of [?domains].

    Each round starts with a prefix ladder: one replay of the incumbent
    order that keeps a copy of its layout after each of its first n-2
    placements; placement is deterministic, so a layout resumed from the
    ladder is byte-identical to replaying the whole order.  The ladder
    lives for one round.  The round's rated swaps are then built along
    spines, one per group: swap depth i and the {!step_classes} class of
    the incoming step, with members j1 < … < jm.  A spine resumes from
    the ladder's depth-i layout, places step j1 at position i and walks
    on, each member position taking the next class-mate; at each member
    jk a branch places step i and the incumbent's steps after jk.  That
    order is swap (i, jk) with class-mates permuted, so it rates and
    rejects as swap (i, jk) does, at (jm - i) + Σk (n - jk) placements
    for the group instead of Σk (n - i).  A branch past the first keeps
    the swap's real order and a lazy rebuild of its layout, forced (not
    counted as an evaluation) only if it is the layout returned.  Under
    the permissive policy, where a placement may report a diagnostic,
    every class is a singleton and every candidate replays whole.

    With [?budget], whole rounds (and whole restarts) are refused once the
    budget is out; a round costs the number of swaps it rates, which is
    the same for every round of a step set.  An eval cap never splits a
    round, so the climbing trajectory — and the degraded best-so-far — is
    a pure function of the budget parameters for every domain count.  The
    first start is always rated, so a best-so-far exists even under a zero
    budget.  A real wall-clock deadline may additionally cut a round short
    (best-effort).
    @raise Env.Rejected when every order is rejected. *)

val search :
  Env.t ->
  name:string ->
  ?base:Amg_layout.Lobj.t ->
  ?rating:Rating.t ->
  ?domains:int ->
  ?budget:Amg_robust.Budget.t ->
  ?store:Amg_store.Store.t * string ->
  Amg_robust.Wire.opt_mode ->
  step list ->
  Amg_layout.Lobj.t * float * step list * int
(** The one search entry point: the best order's layout, its rating, the
    order itself and the search's cost — nodes visited for [Orders] and
    [Bb] (the [optimize.bb_nodes] counter), evaluations for [Local] (see
    {!optimize_local}, which [Local] runs with its default restarts and
    seed).  Rating ties go to the earliest order in the lexicographic
    (canonical-index) order of the permutations.

    [Orders] and [Bb] are one depth-first walk over the tree of orders:
    a child extends a copy of its parent's layout by one placement.  The
    walk prunes with a lower bound on every completion of a partial order
    — the partial bounding box hulled with the cross-axis spans of the
    remaining [`Keep] objects (those spans are invariant under placement;
    under the permissive policy, which may skip objects, the bound falls
    back to the partial box alone, and when a relaxing step may shrink a
    variable edge of the base or of a step it falls back to 0) — checked
    both at node entry
    ([optimize.bb_pruned_by_bound]) and per child right after the child is
    placed ([optimize.bb_pruned]).  A child is expanded only when no
    {!step_classes} class-mate with a lower index is still unplaced.
    Neither cut can lose the first minimum, which is class-canonical and
    rates strictly below every earlier leaf, so rating, order and bytes
    match a replay of every order with {!apply}.

    - [Bb] walks all n! orders.
    - [Orders] (the paper's exhaustive mode) walks the first 720 = 6!
      orders: the first n - 6 steps stay in canonical order and the last
      [min n 6] are permuted.

    The walk decomposes into one sub-search per class-canonical first
    step, each seeded with the canonical order's rating as initial
    incumbent, and merges the sub-search winners in canonical order — the
    chosen order, rating and node count are identical for every
    [?domains].

    With [?budget] the canonical order is always rated and is the
    guaranteed best-so-far fallback; the coordinator polls the deadline
    before rating it and again before the walk.  Under an eval cap m,
    [Orders] walks the first max(1, min(m, r!)) leaf ranks of its r free
    steps (class-skipped and rejected subtrees count their ranks), charges
    the budget that many evaluations and marks it
    {{!Amg_robust.Budget.degraded} degraded} when that is fewer than r!;
    [Bb] turns the cap into a per-sub-search node quota (a pure function of
    the cap and the number of class-canonical first steps) and charges the
    nodes it visited.  Either way the degraded result is identical for
    every domain count.  A real wall-clock deadline additionally stops
    sub-searches mid-walk (best-effort).

    [?store] is [(store, key)]: a durable result store plus the canonical
    key for this module instance (see {!Amg_store.Store.signature}).  On an
    exact key hit — the search strategy and its parameters are appended to
    the key internally — the stored order is replayed with {!apply}, the
    search is skipped entirely and the cost is 0; the rating is recomputed
    from the rebuilt layout, never trusted from disk.  A search that runs
    costs at least 1 (the walk's root node, local search's first start),
    so a cost of 0 means exactly that the store answered.  The store is only
    consulted for unbudgeted, default-rated searches and only written back
    (strictly better ratings win) by non-degraded ones, so results stay
    byte-identical to a store-less run.
    @raise Env.Rejected when every order is rejected. *)
