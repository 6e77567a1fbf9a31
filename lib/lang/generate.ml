(* The generation pipeline: canonical build, optional order search, port
   transplant.  See generate.mli and DESIGN.md "Generation pipeline". *)

module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Lobj = Amg_layout.Lobj
module Diag = Amg_robust.Diag
module Policy = Amg_robust.Policy
module Inject = Amg_robust.Inject
module Budget = Amg_robust.Budget
module Wire = Amg_robust.Wire
module Store = Amg_store.Store

type request = {
  entity : string;
  params : (string * Value.t) list;
  search : Wire.opt_mode option;
  max_time : float option;
  max_evals : int option;
  domains : int option;
  store : (Store.t * string) option;
}

let request ?search ?max_time ?max_evals ?domains ?store entity params =
  { entity; params; search; max_time; max_evals; domains; store }

type searched = {
  rating : float;
  compacts : int;
  canonical_kept : bool;
  cost : int;
  from_store : bool;
}
type outcome = { layout : Lobj.t; searched : searched option; degraded : bool }

let warn ?hint code msg =
  Policy.report (Diag.v ~severity:Diag.Warning Diag.Optimize ~code ?hint msg)

(* The optimizer replays compacts only; ports are re-derived on the winning
   layout the same way PORT() derives them — as the hull of the port's
   net/layer shapes. *)
let transplant_ports ~from obj =
  List.iter
    (fun (p : Amg_layout.Port.t) ->
      let shapes =
        List.filter
          (fun (s : Amg_layout.Shape.t) -> Amg_layout.Shape.on_layer s p.layer)
          (Lobj.shapes_on_net obj p.net)
      in
      match
        Amg_geometry.Rect.hull_list
          (List.map (fun (s : Amg_layout.Shape.t) -> s.rect) shapes)
      with
      | Some rect ->
          ignore (Lobj.add_port obj ~name:p.name ~net:p.net ~layer:p.layer ~rect)
      | None ->
          warn "optimize.port-dropped"
            (Fmt.str
               "port %s: no shapes of net %s on layer %s in the optimized \
                layout" p.name p.net p.layer))
    (Lobj.ports from)

let run ?canonical env program r =
  match r.search with
  | None ->
      let layout =
        match canonical with
        | Some (obj, _) -> obj
        | None -> Interp.build env program r.entity r.params
      in
      { layout; searched = None; degraded = false }
  | Some strategy -> (
      let obj, record =
        match canonical with
        | Some c -> c
        | None -> Interp.build_recorded env program r.entity r.params
      in
      match record with
      | Error why ->
          warn "optimize.not-replayable"
            ~hint:
              "the entity must perform at least two top-level compacts and \
               draw no shapes between or after them"
            (Fmt.str "%s: cannot reorder compacts (%s); emitting the \
                      canonical build" r.entity why);
          { layout = obj; searched = None; degraded = false }
      | Ok { Interp.base; steps } ->
          let budget =
            match (r.max_time, r.max_evals) with
            | None, None -> None
            | deadline, max_evals -> Some (Budget.create ?deadline ?max_evals ())
          in
          let best, rating, order, cost =
            Optimize.search env ~name:r.entity ~base ?domains:r.domains ?budget
              ?store:r.store strategy steps
          in
          let canonical_kept =
            List.length order = List.length steps
            && List.for_all2 ( == ) order steps
          in
          let layout =
            if canonical_kept then obj
            else begin
              transplant_ports ~from:obj best;
              best
            end
          in
          let degraded =
            match budget with
            | Some b when Budget.degraded b ->
                warn "optimize.degraded"
                  ~hint:
                    "raise the time or evaluation budget to search further; \
                     the emitted layout is valid but possibly not the optimum"
                  (Fmt.str "%s: search stopped by the budget after %d \
                            evaluations" r.entity (Budget.spent b));
                true
            | _ -> false
          in
          {
            layout;
            searched =
              Some
                {
                  rating;
                  compacts = List.length steps;
                  canonical_kept;
                  cost;
                  (* only a store replay costs 0 (optimize.mli) *)
                  from_store = cost = 0;
                };
            degraded;
          })

(* --- result-store key --- *)

let tech_fingerprint env =
  Store.tech_fingerprint (Amg_tech.Tech_file.to_string (Env.tech env))

let values params =
  List.map
    (fun (k, p) ->
      (k, match p with Wire.Pnum f -> Value.Num f | Wire.Pstr s -> Value.Str s))
    params

let store_key ~tech entity params =
  Store.signature ~tech ~entity
    ~params:
      (List.map
         (fun (k, v) ->
           ( k,
             match v with
             | Value.Num f -> Store.Num f
             | Value.Str s -> Store.Str s
             | Value.Bool b -> Store.Str (string_of_bool b)
             | Value.Obj _ | Value.Unit -> Store.Str "" ))
         params)

(* --- request boundary --- *)

(* Asynchronous exceptions (Out_of_memory, Sys.Break) never reach here:
   Diag.guard keeps them fatal. *)
let convert_exn = function
  | Env.Rejected msg ->
      Some
        (Diag.v Diag.Layout ~code:"layout.rejected"
           ~hint:"every topology alternative failed a design-rule check; \
                  relax the parameters or add a fallback variant"
           msg)
  | Inject.Fault (site, hit) -> Some (Inject.to_diag site hit)
  | Unix.Unix_error (e, fn, arg) ->
      Some
        (Diag.v Diag.Cli ~code:"cli.io-error"
           (Fmt.str "%s: %s%s" fn (Unix.error_message e)
              (if arg = "" then "" else " (" ^ arg ^ ")")))
  | Sys_error msg -> Some (Diag.v Diag.Cli ~code:"cli.io-error" msg)
  | Failure msg -> Some (Diag.v Diag.Cli ~code:"cli.error" msg)
  | e ->
      Some
        (Diag.v Diag.Internal ~code:"internal.uncaught"
           ~hint:"this is a bug in amgen; please report it"
           (Printexc.to_string e))

let guarded ?(mode = Policy.Strict) ?inject f =
  Policy.reset ();
  match Option.map Inject.parse_spec inject with
  | Some (Error msg) -> Error msg
  | schedule ->
      Policy.set_mode mode;
      (match schedule with
      | Some (Ok s) -> Inject.arm s
      | _ -> Inject.disarm ());
      let result =
        Fun.protect ~finally:Inject.disarm (fun () ->
            Diag.guard ~convert:convert_exn f)
      in
      let reported = Policy.drain () in
      Policy.reset ();
      Ok (result, reported)
