(* Host-speed calibration.

   The benchmark runs on small virtual machines that share physical cores
   with other tenants.  On a two-vCPU machine the speed a process gets
   moves between a fast and a slow state as the neighbours' load comes and
   goes, from one second to the next: in the slow state the same sign-off
   took 1.4x as long, in CPU time as much as in wall time, so it is the
   core that slows, not the scheduler that takes it away.  The median
   time of a fixed operation over a whole run moved by 10 to 25 % between
   runs.

   So the benchmark times a fixed reference at short intervals all
   through the run ([tick]), between its operations, and reports every
   time at a nominal host speed: a duration measured after a reference
   timing [r] reads [raw *. nominal_s /. r] ([scale]).  Kinds of code slow
   by different amounts, and of the mixes tried this one tracked the
   program best: over eight runs of each in-process workload on a loaded
   host, the interquartile spread of their time metrics fell from 5-15 %
   (CPU time as measured) to 1-6 % (scaled).  The reference has two parts:

   - a chain of dependent loads around a 32 KB cycle;
   - allocating standard-library code of the program's kind: rectangles
     sorted, put in a map and a hash table, printed as text.

   The reference is this module's own code, compiled with fixed flags
   (see the dune file): it calls nothing in the program, so no change to
   the program or to its build settings moves it.  The allocating part
   runs on an emptied minor heap and fits in it, so no collection, and
   none of the program's data, lands in a timing.  The timed passes follow
   an untimed one that brings the reference's code and data back into
   cache, so what the program left in the caches does not change the
   reference's time either; each timing is the faster of two passes, so
   an interrupt or a preemption in one does not count. *)

let now = Unix.gettimeofday

(* The process's CPU time (user and system), seconds.  The in-process
   workloads time their operations with it: with one thread it is the
   wall time minus the time the virtual CPU was taken away, which a
   shared host does at will. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The reference's time in the host's fast state on a two-vCPU 2.1 GHz
   Xeon virtual machine.  Times are reported as if every reference timing
   had read this. *)
let nominal_s = 260e-6

let sink = Array.make 1 0

(* --- part 1: dependent loads -------------------------------------------- *)

(* A seeded cyclic permutation of 4096 slots: following it visits every
   slot once per lap, in an order the prefetcher cannot guess. *)
let size = 4096

let cycle =
  let st = Random.State.make [| 0x4057 |] in
  let order = Array.init size Fun.id in
  for i = size - 1 downto 1 do
    let k = Random.State.int st (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(k);
    order.(k) <- x
  done;
  let next = Array.make size 0 in
  Array.iteri (fun i slot -> next.(slot) <- order.((i + 1) mod size)) order;
  next

let chase () =
  let p = ref 0 and h = ref 0 in
  for _ = 1 to 10_000 do
    p := Array.unsafe_get cycle !p;
    h := (!h lxor !p) * 0x9E3779B1;
    if !h land 8 = 0 then h := !h lsr 3 else h := !h + !p
  done;
  sink.(0) <- !h

(* --- part 2: allocating library code ------------------------------------ *)

module Int_map = Map.Make (Int)

let text = Buffer.create 16384
let cells = Hashtbl.create 512

let library () =
  let rects =
    List.init 300 (fun i ->
        let x = (i * 7919) land 1023 and y = (i * 104729) land 1023 in
        (x, y, x + 1 + (i land 15), y + 1 + ((i lsr 4) land 15)))
  in
  let rects =
    List.sort
      (fun (a, b, _, _) (c, d, _, _) -> if a <> c then Int.compare a c else Int.compare b d)
      rects
  in
  let areas =
    List.fold_left
      (fun m (x, y, x1, y1) -> Int_map.add ((x * 1024) + y) ((x1 - x) * (y1 - y)) m)
      Int_map.empty rects
  in
  Hashtbl.reset cells;
  List.iter (fun (x, y, x1, _) -> Hashtbl.replace cells (x lxor y) x1) rects;
  let area =
    Int_map.fold (fun k v a -> if Hashtbl.mem cells (k land 1023) then a + v else a - v) areas 0
  in
  Buffer.clear text;
  List.iter (fun (x, y, x1, y1) -> Printf.bprintf text "B %d %d %d %d;\n" (x1 - x) (y1 - y) x y) rects;
  let r =
    List.fold_left (fun f (x, y, _, _) -> f +. sqrt (float_of_int ((x * x) + (y * y)))) 0. rects
  in
  sink.(0) <- area + Buffer.length text + int_of_float r

let pass () =
  chase ();
  library ()

(* One reference timing, in seconds. *)
let measure () =
  Gc.minor ();
  pass ();
  let timed () =
    let t0 = now () in
    pass ();
    now () -. t0
  in
  let a = timed () in
  Float.min a (timed ())

(* Between two reference timings: the reference then costs about 2.5 % of
   the run, and an operation is never far from the timing that scales
   it. *)
let interval_s = 0.05

type state = {
  mutable last : float;  (** when the latest reference timing ended *)
  mutable reference : float;  (** the latest reference timing, seconds *)
  mutable timings : float list;
}

let state = { last = neg_infinity; reference = nominal_s; timings = [] }

let record () =
  let r = measure () in
  state.reference <- r;
  state.timings <- r :: state.timings;
  state.last <- now ()

(* Take a reference timing if the latest is [interval_s] old.  Call it
   only between operations: a timing inside one would count as its
   work. *)
let tick () = if now () -. state.last >= interval_s then record ()

(* A duration just measured, at the nominal host speed.  The host's speed
   moves within an operation longer than [interval_s], so such a one also
   takes a reference timing after it and is scaled by the mean of the
   timings before and after it. *)
let scale raw =
  let before = state.reference in
  if raw >= interval_s then record ();
  raw *. nominal_s /. ((before +. state.reference) /. 2.)

(* The reference timings so far, oldest first, in seconds. *)
let timings () = List.rev state.timings

let () = record ()
