(** Design-rule checker.

    Verifies a finished layout object against its technology: minimum
    widths, exact cut sizes, L∞ spacings (with same-net merging allowed and
    different-net abutment reported as a short), cut enclosures, gate
    extensions, and the latch-up cover rule.

    Enclosure policy for cuts: a cut must be enclosed by {e every} metal
    layer that declares an enclosure rule for it (a via needs both metals)
    and by {e at least one} non-metal landing layer (a contact may land on
    poly, diffusion or poly2).

    Cost: {!run} reads the layout once into a view shared by every check
    (arrays of shapes, layer indices and rules: O(shapes)); each layer's
    touch graph takes one margin-0 index query per shape, and an int-array
    union-find replays it for spacing, shorts and min-area.  Each
    single-check function builds a view of its own.

    Cut arrays cost a few queries per array, not per cut.  The view
    groups each maximal run of consecutive cuts with one cut layer, one
    [Array_member] origin, one net and one size (none keep-clear), and
    proves from the shapes alone, in linear time and without a sort,
    whether the members are apart: in row-major order with every gap at
    least 1 (on a net) or the layer's spacing (on none).  Each pass then
    settles a group with one proof, made lazily and at most once: the
    touch graph and spacings query the group's hull once per layer, for
    shapes other than its members; shorts query it once for [resmark];
    enclosures look for one shape per outer layer that encloses the
    hull with its margin.  A settled cut would have reported nothing and
    joined no other shape, so it is skipped; a group whose proof fails
    is checked cut by cut.  Reports are identical either way, in content
    and order. *)

type check = Widths | Spacings | Enclosures | Extensions | Latch_up
[@@deriving show, eq]

val all_checks : check list

val check_widths :
  tech:Amg_tech.Technology.t -> Amg_layout.Lobj.t -> Violation.t list

val check_spacings :
  tech:Amg_tech.Technology.t -> Amg_layout.Lobj.t -> Violation.t list

val check_enclosures :
  tech:Amg_tech.Technology.t -> Amg_layout.Lobj.t -> Violation.t list

val check_extensions :
  tech:Amg_tech.Technology.t -> Amg_layout.Lobj.t -> Violation.t list

val run :
  ?checks:check list ->
  tech:Amg_tech.Technology.t ->
  Amg_layout.Lobj.t ->
  Violation.t list
(** Run the selected checks (default: all). *)
