(** The cut-array registry of a layout object ({!Lobj}): the registered
    arrays with the memos of their last derivation, and the blocks that
    hold their cuts in the object's store.

    A contact or via array is derived geometry (§2.2/§2.3): its cuts are
    a function of its containers, so the store keeps each array's cuts as
    one {e block} — the memo's cut rectangles, a displacement, a base id
    (cut [k] has id [base + k]), and the cut layer, net and origin every
    cut shares.  A block takes one cell of the store's slot order.  It is
    {e pending} until an operation needs its cuts as shape records; it is
    then {e expanded} in place ([Cuts]), in the cell of the object that
    asked, and a single-cut edit leaves the records without the block.

    {b Invariant} (checked by {!check}, for an object whose cells are
    [cell 0 … cell (n_slots - 1)]):
    - every entry's origin is [Array_member aid] of its own [aid], and
      no aid is registered twice;
    - a cell's block (pending, or expanded with [block = Some b])
      belongs to exactly one registered entry: its origin is that
      entry's origin value and its memo is that entry's memo (both
      physically), its layer and net are the entry's cut layer and net;
      an entry has at most one block;
    - a pending block's ids have no id table entry; a [Cuts] cell holds
      at least one record, record [j] has id [base + j] and is found at
      the cell, and an expanded block's records are exactly its cuts
      ({!cut});
    - [blocks] lists exactly the slots of the [Block] and [Cuts] cells;
    - no [One] cell holds a member of a registered array;
    - the id ranges of the [Block] and [Cuts] cells are disjoint and
      below the id bound.

    So a rederive finds every member without a pass over the store: they
    are in the cells of [blocks]. *)

type array_spec = {
  cut_layer : string;
  container_ids : int list;
  array_net : string option;
}

(** An array's last derivation: the rules and the containers' (layer,
    rect)s it was derived from, the cuts it gave and their hull (unused
    when there is none).  [Derive.cut_array] is a function of exactly
    these and the cut layer, so while the rules are the same value and
    every container still has its layer and rect, the cuts are still
    [cuts]. *)
type memo = {
  rules : Amg_tech.Rules.t;
  containers : (string * Amg_geometry.Rect.t) list;
  cuts : Amg_geometry.Rect.t array;
  hull : Amg_geometry.Rect.t;
}

(** A registered array.  Entries are immutable: a derivation replaces
    the entry, so a copy shares the memos of the object it was taken from
    and copies none.  [origin] is the one [Array_member aid] value every
    member of the array carries. *)
type entry = {
  aid : int;
  origin : Shape.origin;
  spec : array_spec;
  memo : memo option; (** [None]: not derived yet *)
}

(** An array's cuts as one value: cut [j] is [memo.cuts.(j)] displaced by
    [(dx, dy)], with id [base + j]. *)
type block = {
  memo : memo;
  dx : int;
  dy : int;
  base : int;
  layer : string;
  net : string option;
  origin : Shape.origin;
}

(** One cell of the store's slot order.  Cells are immutable, so a copy
    of the store shares them. *)
type cell =
  | Free
  | One of Shape.t  (** a shape that is no array member *)
  | Block of block  (** pending: the cuts exist only as the block *)
  | Cuts of { base : int; recs : Shape.t option array; block : block option }
      (** records with ids [base + j] ([None]: removed): [block]'s cuts,
          expanded, or with [block = None] records that are no longer a
          block's cuts (an edited or transformed block, or a member a
          caller added itself) *)

type t = {
  entries : entry list;  (** newest first *)
  blocks : int list;  (** slots of the [Block] and [Cuts] cells *)
}

val empty : t

val size : block -> int
(** Number of cuts. *)

val expand : block -> Shape.t option array
(** Every cut's record, in order. *)

val iter_records : (Shape.t -> unit) -> cell -> unit
(** [f] of every shape record of the cell, in order; a pending block has
    none. *)

val shift : block -> dx:int -> dy:int -> block

val block_of : entry -> memo -> base:int -> block
(** The undisplaced block of an entry's cuts. *)

val register : t -> aid:int -> array_spec -> t
val in_order : t -> entry list
(** The entries in registration order. *)

val specs : t -> (int * array_spec) list

val of_container : t -> int -> (entry -> 'a) -> 'a list
(** [f] of every entry with the shape among its containers, in
    registration order. *)

val starved : t -> container:int -> members:(int -> int) -> bool
(** Whether some array with the shape among its containers got no cut at
    its last derivation; [members aid] counts the members of one not
    derived yet. *)

val origin_of : t -> int -> Shape.origin
(** The origin of array [aid]'s members: its entry's, when registered. *)

val is_member : t -> Shape.t -> bool
(** Whether the shape is a member of a registered array. *)

val map_nets : t -> (string option -> string option) -> t
(** Every array net mapped; an entry whose net maps to itself
    (physically) is kept. *)

val absorb : t -> t -> offset:int -> t
(** [absorb reg src ~offset] registers [src]'s entries after [reg]'s,
    their aids and containers renumbered by [offset], their memos kept;
    the block list and loose ids are [reg]'s. *)

val derive : t -> Amg_tech.Rules.t -> container:(int -> string * Amg_geometry.Rect.t) -> t
(** Every entry's memo brought up to date under [rules], with [container
    id] the layer and rect of a container: an entry whose rules (compared
    physically) and containers still match its memo is kept, the others
    are derived afresh ([Derive.cut_array], each run counted as
    [lobj.cut_array_derivations]).  The entry list is kept when no entry
    changed. *)

val check :
  t ->
  n_slots:int ->
  cell:(int -> cell) ->
  next_id:int ->
  slot_of:(int -> int) ->
  unit
(** Verify the invariant above over the object's cells and id table
    ([slot_of id], -1 for none).
    @raise Failure naming the first violation. *)
