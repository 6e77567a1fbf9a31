(* Euler-path finger ordering for diffusion sharing.

   A bank of same-polarity transistors maps to a multigraph: nodes are the
   source/drain nets, one edge per channel finger.  A trail through the
   graph is exactly a legal Mos_array column list — consecutive fingers
   share the diffusion row between them.  Fewest trails = fewest diffusion
   breaks = minimal width: a connected component needs one trail when it
   has at most two odd-degree nodes, and [odd/2] trails otherwise
   (classic Euler condition).

   This is how analog module generators derive e.g. the mirror pattern
   "din | g | s | g | dout" from the schematic alone, instead of the
   designer writing the ordering down. *)

module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env

type device = {
  e_name : string;
  e_g : string;
  e_s : string;
  e_d : string;
  e_fingers : int;
}

let device ?(fingers = 1) ~name ~g ~s ~d () =
  if fingers < 1 then Env.reject "Euler.device: fingers < 1";
  { e_name = name; e_g = g; e_s = s; e_d = d; e_fingers = fingers }

(* --- multigraph ------------------------------------------------------- *)

type edge = { id : int; a : string; b : string; gate : string }

let edges_of_devices devs =
  List.concat_map
    (fun d ->
      List.init d.e_fingers (fun _ ->
          (d.e_s, d.e_d, d.e_g)))
    devs
  |> List.mapi (fun id (a, b, gate) -> { id; a; b; gate })

let other e n = if String.equal e.a n then e.b else e.a

(* Hierholzer with circuit splicing: walk a trail from [start], then keep
   splicing circuits at visited nodes until no node on the trail has an
   unused incident edge.  Returns the trail as (start_node, edge list). *)
let walk_trail ~adj ~used start =
  let next_unused n =
    List.find_opt (fun (e : edge) -> not used.(e.id)) (Hashtbl.find_opt adj n |> Option.value ~default:[])
  in
  let rec greedy n acc =
    match next_unused n with
    | None -> List.rev acc
    | Some e ->
        used.(e.id) <- true;
        greedy (other e n) (e :: acc)
  in
  let trail = ref (greedy start []) in
  let rec splice () =
    (* Find a position whose node still has unused edges; insert a circuit
       there. *)
    let rec nodes_along n = function
      | [] -> [ (n, []) ]
      | e :: rest -> (n, e :: rest) :: nodes_along (other e n) rest
    in
    let positions = nodes_along start !trail in
    match
      List.find_opt (fun (n, _) -> next_unused n <> None) positions
    with
    | None -> ()
    | Some (n, suffix) ->
        let circuit = greedy n [] in
        (* Replace the suffix starting at this node by circuit @ suffix. *)
        let prefix_len = List.length !trail - List.length suffix in
        let prefix = List.filteri (fun i _ -> i < prefix_len) !trail in
        trail := prefix @ circuit @ suffix;
        splice ()
  in
  splice ();
  (start, !trail)

let trails devs =
  let real_edges = edges_of_devices devs in
  let n_real = List.length real_edges in
  (* Connected components over the nets. *)
  let nets =
    List.concat_map (fun e -> [ e.a; e.b ]) real_edges
    |> List.sort_uniq String.compare
  in
  let parent = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace parent n n) nets;
  let rec find n =
    let p = Hashtbl.find parent n in
    if String.equal p n then n
    else begin
      let r = find p in
      Hashtbl.replace parent n r;
      r
    end
  in
  List.iter
    (fun e ->
      let ra = find e.a and rb = find e.b in
      if not (String.equal ra rb) then Hashtbl.replace parent ra rb)
    real_edges;
  let components =
    List.sort_uniq String.compare (List.map find nets)
  in
  List.concat_map
    (fun root ->
      let edges =
        List.filter (fun e -> String.equal (find e.a) root) real_edges
      in
      let comp_nets =
        List.filter (fun n -> String.equal (find n) root) nets
      in
      let degree n =
        List.fold_left
          (fun acc e ->
            acc
            + (if String.equal e.a n then 1 else 0)
            + (if String.equal e.b n then 1 else 0))
          0 edges
      in
      let odds = List.filter (fun n -> degree n mod 2 = 1) comp_nets in
      (* Keep two odd nodes as the open trail's endpoints; pair the rest
         with virtual break edges.  After pairing the component has an
         Euler trail, which we then split at the virtual edges. *)
      let rec pair_up k = function
        | a :: b :: rest ->
            { id = n_real + k; a; b; gate = "" } :: pair_up (k + 1) rest
        | _ -> []
      in
      let virtuals =
        match odds with _ :: _ :: rest -> pair_up 0 rest | _ -> []
      in
      let edges = edges @ virtuals in
      let adj : (string, edge list) Hashtbl.t = Hashtbl.create 16 in
      let add n e =
        Hashtbl.replace adj n
          (e :: (Hashtbl.find_opt adj n |> Option.value ~default:[]))
      in
      List.iter
        (fun e ->
          add e.a e;
          if not (String.equal e.a e.b) then add e.b e)
        edges;
      let max_id = List.fold_left (fun m e -> Int.max m e.id) 0 edges in
      let used = Array.make (max_id + 1) false in
      let start = match odds with o :: _ -> o | [] -> root in
      let s0, trail = walk_trail ~adj ~used start in
      assert (List.for_all (fun (e : edge) -> used.(e.id)) edges);
      (* Split at virtual edges. *)
      let rec split cur_start cur_rev = function
        | [] -> [ (cur_start, List.rev cur_rev) ]
        | e :: rest when e.id >= n_real ->
            let node_after =
              (* The node the walk is at after traversing [e]. *)
              let node_before =
                match cur_rev with
                | last :: _ ->
                    (* end node of cur_rev walk *)
                    let rec walk n = function
                      | [] -> n
                      | x :: xs -> walk (other x n) xs
                    in
                    ignore last;
                    walk cur_start (List.rev cur_rev)
                | [] -> cur_start
              in
              other e node_before
            in
            (cur_start, List.rev cur_rev) :: split node_after [] rest
        | e :: rest -> split cur_start (e :: cur_rev) rest
      in
      split s0 [] trail
      |> List.filter (fun (_, es) -> es <> []))
    components

(* A trail as Mos_array columns: Row n0, Fin g1, Row n1, ... *)
let columns_of_trail (start, edges) =
  let rec go n = function
    | [] -> [ Mos_array.Row n ]
    | e :: rest -> Mos_array.Row n :: Mos_array.Fin e.gate :: go (other e n) rest
  in
  go start edges

let column_plans devs = List.map columns_of_trail (trails devs)

type stats = {
  fingers : int;
  trails_count : int;
  rows_shared : int;    (* contact rows in the shared layout *)
  rows_unshared : int;  (* 2 per finger without sharing *)
}

let sharing_stats devs =
  let ts = trails devs in
  let fingers = List.fold_left (fun a d -> a + d.e_fingers) 0 devs in
  {
    fingers;
    trails_count = List.length ts;
    rows_shared = fingers + List.length ts;
    rows_unshared = 2 * fingers;
  }
