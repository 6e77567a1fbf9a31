module Diag = Amg_robust.Diag
module Wire = Amg_robust.Wire

let search ?max_time ?max_evals = function
  | None when max_time <> None || max_evals <> None -> Some Wire.Orders
  | search -> search

let storable mode inject = mode = Amg_robust.Policy.Strict && inject = None

let has_error = List.exists (fun d -> d.Diag.severity = Diag.Error)

let build_status ~degraded diags =
  if has_error diags then Wire.status_diag
  else if degraded then Wire.status_degraded
  else Wire.status_ok

let sweep_status ~failures diags =
  if failures > 0 then Wire.status_degraded
  else if has_error diags then Wire.status_diag
  else Wire.status_ok
