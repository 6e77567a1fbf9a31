(* What every workload shares: the run context, output oracles, process
   probes and the result record. *)

type ctx = {
  seed : int;
  seconds : float;  (** the measured window the fixed work is sized to *)
  smoke : bool;  (** toy sizes for the test suite *)
  tracer : Tracer.t;
  workdir : string;  (** scratch directory inside the checkout *)
  amgend : string;  (** daemon executable for serve_mix *)
  mutable failures : string list;  (** failed output checks *)
}

(* Every input a workload generates comes from this stream. *)
let rng ctx salt = Random.State.make [| ctx.seed; salt |]

(* Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  done

(* An output oracle: a failed check fails the run. *)
let check ctx ok what =
  if not ok then begin
    ctx.failures <- what :: ctx.failures;
    Fmt.epr "amgperf: check failed: %s@." what
  end

let now = Host.now

(* [f]'s result and its CPU time in seconds at the nominal host speed
   (see [Host]).  Every time an in-process workload reports goes through
   [timed]; the caller ticks the reference ([Host.tick]) between
   operations. *)
let timed f =
  let t0 = Host.cpu () in
  let v = f () in
  (v, Host.scale (Host.cpu () -. t0))

let ms s = s *. 1000.

(* Work sizes scale linearly with the measured window; smoke runs use the
   floor.  Sizes depend only on the arguments, never on measured speed,
   so two commits run identical work. *)
let sized ctx ~per_s ~floor =
  if ctx.smoke then floor
  else max floor (int_of_float (Float.round (per_s *. ctx.seconds)))

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> go ()
          in
          go ())

(* The host's speed also changes while an operation runs, which the
   reference timing before it cannot see, so a single scaled time is still
   off by 10-20 %.  The workloads repeat their work in [n] passes spread
   over the run and take each operation's median time over the passes. *)
let passes ctx n = if ctx.smoke then 2 else n

(* Setup is timed again at points spread over the run and the median of
   all its timings reported. *)
type 'a setup = { make : unit -> 'a; mutable times : float list }

let setup make =
  Host.tick ();
  let v, dt = timed make in
  ({ make; times = [ dt ] }, v)

let setup_again s =
  Host.tick ();
  s.times <- snd (timed s.make) :: s.times

let setup_s s = Stats.median s.times

(* Each of [n] work items' times over the passes. *)
let item_times n = Array.make n []
let add_time times i ms = times.(i) <- ms :: times.(i)
let item_medians times = Array.to_list (Array.map Stats.median times)

type gc_mark = { g_major : int; g_major_words : float; g_top : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_major = s.Gc.major_collections; g_major_words = s.Gc.major_words; g_top = s.Gc.top_heap_words }

(* The per-run result: end-to-end metrics always, per-layer metrics in a
   traced run. *)
type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;  (** human-readable context, printed before the metrics *)
}
