(* Process-wide metrics registry: counters, gauges, histograms.

   Every instrument is backed by atomics so updates are lock-free and
   safe from any thread or domain — the serve daemon bumps request
   counters from connection threads while scrape handlers read them
   concurrently.  The registry table itself is guarded by one mutex,
   taken only on registration (first lookup of a name + label set) and
   while listing instruments for a snapshot; never while updating.

   Snapshot order is (name, sorted labels), so equal registry states
   serialise to byte-equal expositions — the serve determinism drill
   relies on this. *)

type labels = (string * string) list

type hist = {
  bounds : float array;          (* strictly increasing upper bounds *)
  counts : int Atomic.t array;   (* one per bound + overflow slot *)
  sum : float Atomic.t;
}

type counter = int Atomic.t
type fgauge = float Atomic.t
type histogram = hist

type instr =
  | I_counter of counter
  | I_counter_fn of (unit -> int) ref
  | I_fgauge of fgauge
  | I_gauge_fn of (unit -> float) ref
  | I_hist of hist

let registry : (string * labels, instr) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let with_lock f =
  Mutex.lock reg_lock;
  match f () with
  | v ->
      Mutex.unlock reg_lock;
      v
  | exception e ->
      Mutex.unlock reg_lock;
      raise e

let kind_name = function
  | I_counter _ | I_counter_fn _ -> "counter"
  | I_fgauge _ | I_gauge_fn _ -> "gauge"
  | I_hist _ -> "histogram"

(* Find-or-register under the lock.  [make] builds the instrument;
   [pick] projects the stored one back to the typed handle and is also
   the kind check: registering the same name + labels as a different
   kind is a programming error. *)
let intern name labels make pick =
  let key = (name, canon_labels labels) in
  with_lock @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some i -> (
      match pick i with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name i)))
  | None ->
      let i = make () in
      Hashtbl.replace registry key i;
      match pick i with Some h -> h | None -> assert false

let counter ?(labels = []) name =
  intern name labels
    (fun () -> I_counter (Atomic.make 0))
    (function I_counter c -> Some c | _ -> None)

let add c n = if n > 0 then ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

(* Callback instruments replace on re-registration: a restarted server
   re-points the callbacks at its fresh state instead of leaving stale
   closures over a stopped instance. *)
let counter_fn ?(labels = []) name f =
  let cell =
    intern name labels
      (fun () -> I_counter_fn (ref f))
      (function I_counter_fn r -> Some r | _ -> None)
  in
  cell := f

let fgauge ?(labels = []) name =
  intern name labels
    (fun () -> I_fgauge (Atomic.make 0.))
    (function I_fgauge g -> Some g | _ -> None)

let set_f g v = Atomic.set g v

let gauge_fn ?(labels = []) name f =
  let cell =
    intern name labels
      (fun () -> I_gauge_fn (ref f))
      (function I_gauge_fn r -> Some r | _ -> None)
  in
  cell := f

(* --- histograms --- *)

(* 0.25 ms .. ~524 s, factor 2 per bucket: 22 bounds, resolving the
   whole serving range from memo hits (sub-ms) to cold searches
   (seconds) within a factor-2 bucket width. *)
let default_latency_bounds =
  Array.init 22 (fun i -> 0.00025 *. Float.of_int (1 lsl i))

let histogram ?(labels = []) ?(bounds = default_latency_bounds) name =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds not strictly increasing")
    bounds;
  intern name labels
    (fun () ->
      I_hist
        {
          bounds = Array.copy bounds;
          counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
        })
    (function I_hist h -> Some h | _ -> None)

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let bucket_of bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    Stdlib.incr i
  done;
  !i (* = n for the overflow bucket *)

let observe h v =
  ignore (Atomic.fetch_and_add h.counts.(bucket_of h.bounds v) 1);
  atomic_add_float h.sum v

type hsnap = {
  h_bounds : float array;
  h_counts : int array;
  h_count : int;
  h_sum : float;
}

let hist_snap h =
  let counts = Array.map Atomic.get h.counts in
  {
    h_bounds = h.bounds;
    h_counts = counts;
    h_count = Array.fold_left ( + ) 0 counts;
    h_sum = Atomic.get h.sum;
  }

let quantile s q =
  if s.h_count = 0 then 0.
  else begin
    let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int s.h_count))) in
    let rank = Int.min rank s.h_count in
    let nb = Array.length s.h_bounds in
    let rec go i cum =
      if i >= nb then infinity
      else
        let cum = cum + s.h_counts.(i) in
        if cum >= rank then s.h_bounds.(i) else go (i + 1) cum
    in
    go 0 0
  end

(* --- snapshot --- *)

type value = Counter of int | Gauge of float | Histogram of hsnap
type sample = { m_name : string; m_labels : labels; m_value : value }

(* A raising or absent callback reads as 0: a scrape must never fail
   because one subsystem's probe did. *)
let call0 f ~default ~conv = match f () with v -> conv v | exception _ -> default

let snapshot () =
  let instrs =
    with_lock @@ fun () ->
    Hashtbl.fold (fun k i acc -> (k, i) :: acc) registry []
  in
  let instrs =
    List.sort
      (fun ((n1, l1), _) ((n2, l2), _) ->
        match String.compare n1 n2 with 0 -> compare l1 l2 | c -> c)
      instrs
  in
  List.map
    (fun ((name, labels), i) ->
      let value =
        match i with
        | I_counter c -> Counter (Atomic.get c)
        | I_counter_fn r -> Counter (call0 !r ~default:0 ~conv:(fun v -> v))
        | I_fgauge g -> Gauge (Atomic.get g)
        | I_gauge_fn r -> Gauge (call0 !r ~default:0. ~conv:(fun v -> v))
        | I_hist h -> Histogram (hist_snap h)
      in
      { m_name = name; m_labels = labels; m_value = value })
    instrs

let reset () =
  with_lock @@ fun () ->
  Hashtbl.iter
    (fun _ i ->
      match i with
      | I_counter c -> Atomic.set c 0
      | I_fgauge g -> Atomic.set g 0.
      | I_counter_fn _ | I_gauge_fn _ -> ()
      | I_hist h ->
          Array.iter (fun c -> Atomic.set c 0) h.counts;
          Atomic.set h.sum 0.)
    registry

(* --- Prometheus text exposition --- *)

let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name

let escape_label b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

(* Shortest decimal that round-trips; integral values print without a
   fractional part so counters stay readable. *)
let pp_num b f =
  if Float.is_nan f then Buffer.add_string b "NaN"
  else if f = infinity then Buffer.add_string b "+Inf"
  else if f = neg_infinity then Buffer.add_string b "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string b s

let pp_labels b = function
  | [] -> ()
  | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (sanitize k);
          Buffer.add_string b "=\"";
          escape_label b v;
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

let to_prometheus () =
  let b = Buffer.create 2048 in
  let last_type = ref "" in
  let type_line name kind =
    if !last_type <> name ^ kind then begin
      last_type := name ^ kind;
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun { m_name; m_labels; m_value } ->
      let base = sanitize m_name in
      match m_value with
      | Counter v ->
          let name = base ^ "_total" in
          type_line name "counter";
          Buffer.add_string b name;
          pp_labels b m_labels;
          Buffer.add_char b ' ';
          pp_num b (float_of_int v);
          Buffer.add_char b '\n'
      | Gauge v ->
          type_line base "gauge";
          Buffer.add_string b base;
          pp_labels b m_labels;
          Buffer.add_char b ' ';
          pp_num b v;
          Buffer.add_char b '\n'
      | Histogram h ->
          type_line base "histogram";
          let cum = ref 0 in
          let bucket le n =
            Buffer.add_string b (base ^ "_bucket");
            let lb = Buffer.create 16 in
            pp_num lb le;
            pp_labels b (m_labels @ [ ("le", Buffer.contents lb) ]);
            Buffer.add_char b ' ';
            pp_num b (float_of_int n);
            Buffer.add_char b '\n'
          in
          Array.iteri
            (fun i bound ->
              cum := !cum + h.h_counts.(i);
              bucket bound !cum)
            h.h_bounds;
          bucket infinity h.h_count;
          Buffer.add_string b (base ^ "_sum");
          pp_labels b m_labels;
          Buffer.add_char b ' ';
          pp_num b h.h_sum;
          Buffer.add_char b '\n';
          Buffer.add_string b (base ^ "_count");
          pp_labels b m_labels;
          Buffer.add_char b ' ';
          pp_num b (float_of_int h.h_count);
          Buffer.add_char b '\n')
    (snapshot ());
  Buffer.contents b
