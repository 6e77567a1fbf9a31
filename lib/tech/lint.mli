(** Technology-deck lint.

    Structural consistency checks on a loaded technology: rules that
    reference undeclared layers, cuts without sizes or landing pads,
    landing pads narrower than the landing layer's own width rule,
    off-grid values, duplicate GDS numbers, a missing latch-up distance.
    Run once after {!Tech_file.load} (the [amgen tech] command does) so
    deck mistakes surface as direct messages instead of confusing
    generator or DRC failures later. *)

type severity = Error | Warning
type issue = { severity : severity; code : string; message : string }

val check : Technology.t -> issue list
(** All findings, errors and warnings, in pass order. *)

val errors : issue list -> issue list

val is_clean : Technology.t -> bool
(** No {e errors} (warnings allowed). *)

val pp_issue : Format.formatter -> issue -> unit
val pp : Format.formatter -> issue list -> unit

val to_diags : ?file:string -> issue list -> Amg_robust.Diag.t list
(** Issues as structured diagnostics (codes prefixed ["tech.lint."],
    subsystem [Tech]); [?file] names the deck in each payload. *)
