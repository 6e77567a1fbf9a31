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
    single-check function builds a view of its own. *)

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
