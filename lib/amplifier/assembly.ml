(* Generic block-level assembly: a stack of module rows with reserved
   routing channels, substrate-tap rows, supply rails and global signal
   routing.  Extracted from the amplifier build so that any partitioned
   circuit can be assembled the same way (the OTA in {!Ota} is the second
   user).

   The paper placed the generated modules and routed the global nets by
   hand; this is the scripted equivalent of that manual step. *)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Port = Amg_layout.Port
module Env = Amg_core.Env
module Path = Amg_route.Path
module Wire = Amg_route.Wire

type result = { obj : Lobj.t; routing : Amg_route.Global.result }

let um = Units.of_um

(* Place a list of blocks in one row, west to east, with a routing
   clearance between them (the gap gives the global router escape lanes at
   the block edges). *)
let pack_row _env ~name ?gap blocks =
  let row = Lobj.create name in
  let gap = Option.value ~default:(um 8.) gap in
  let x = ref 0 in
  List.iter
    (fun b ->
      let bb = Lobj.bbox_exn b in
      Lobj.translate b ~dx:(!x - bb.Rect.x0) ~dy:(-bb.Rect.y0);
      x := !x + Rect.width bb + gap;
      ignore (Lobj.absorb row b))
    blocks;
  row

(* A full-width substrate-tap row. *)
let tap_row env ~width ~n =
  Amg_modules.Contact_row.substrate_tap env ~name:("taprow" ^ string_of_int n)
    ~l:width ()

let assemble env ~name ~netlist ~rows ?(track_zone = um 32.)
    ?(tap_band = um 6.) ?(vdd = "vdd") ?(vss = "vss") () =
  if List.is_empty rows then Env.reject "Assembly: no rows";
  let amp = Lobj.create name in
  let place obj ~y =
    let b = Lobj.bbox_exn obj in
    Lobj.translate obj ~dx:(-b.Rect.x0) ~dy:(y - b.Rect.y0);
    ignore (Lobj.absorb amp obj);
    y + Rect.height b
  in
  (* Stack the rows bottom to top; between consecutive rows a routing
     channel (metal1 track zone) topped by a tap band. *)
  let channels =
    match rows with
    | [] -> []
    | first :: rest ->
        let y = ref (place first ~y:0) in
        List.map
          (fun row ->
            let ch =
              { Amg_route.Global.ch_y0 = !y + um 2.;
                ch_y1 = !y + um 2. + track_zone }
            in
            y := place row ~y:(ch.Amg_route.Global.ch_y1 + tap_band + um 2.);
            ch)
          rest
  in
  let width () = Rect.width (Lobj.bbox_exn amp) in
  (* Tap rows: the band above each channel's track zone, plus one below the
     stack for latch-up coverage and one above for the supply rails. *)
  let tap_counter = ref 0 in
  let add_tap ~y =
    incr tap_counter;
    let tap = tap_row env ~width:(width ()) ~n:!tap_counter in
    let b = Lobj.bbox_exn tap in
    Lobj.translate tap ~dx:(-b.Rect.x0) ~dy:(y - b.Rect.y0);
    ignore (Lobj.absorb amp tap)
  in
  List.iter
    (fun (ch : Amg_route.Global.channel) ->
      add_tap ~y:(ch.Amg_route.Global.ch_y1 + um 1.))
    channels;
  let bottom = (Lobj.bbox_exn amp).Rect.y0 in
  add_tap ~y:(bottom - um 5.);
  (* Supply distribution: tap rows are full-width metal1 vss rails (one
     added above the stack as well); vdd gets its own metal1 bars outside
     the taps.  Every supply port rises on metal2 to its nearest rail —
     metal2 risers cross metal1 freely, so rail order does not matter. *)
  let rules = Env.rules env in
  let m1s = Rules.space_exn rules "metal1" "metal1" in
  let top = (Lobj.bbox_exn amp).Rect.y1 in
  add_tap ~y:(top + um 2.);
  let bar ~net ~y =
    let b = Lobj.bbox_exn amp in
    let rect = Rect.make ~x0:b.Rect.x0 ~y0:y ~x1:b.Rect.x1 ~y1:(y + um 4.) in
    ignore (Lobj.add_shape amp ~layer:"metal1" ~rect ~net ());
    rect
  in
  let _vdd_top = bar ~net:vdd ~y:((Lobj.bbox_exn amp).Rect.y1 + m1s) in
  let _vdd_bot = bar ~net:vdd ~y:((Lobj.bbox_exn amp).Rect.y0 - m1s - um 4.) in
  (* Hook every supply port to the nearest same-net rail (vss rails are the
     tap-row metals). *)
  let rail_rects net =
    let half = Rect.width (Lobj.bbox_exn amp) / 2 in
    List.filter_map
      (fun (s : Shape.t) ->
        if
          Option.equal String.equal s.Shape.net (Some net)
          && Rect.width s.Shape.rect > half
        then Some s.Shape.rect
        else None)
      (Lobj.shapes_on amp "metal1")
  in
  let rails_of net = List.map Rect.center_y (rail_rects net) in
  let unhooked = ref [] in
  List.iter
    (fun (p : Port.t) ->
      if String.equal p.Port.net vdd || String.equal p.Port.net vss then begin
        let py = Rect.center_y p.Port.rect in
        let rails =
          List.sort
            (fun a b -> Int.compare (abs (a - py)) (abs (b - py)))
            (rails_of p.Port.net)
        in
        let ok =
          List.exists
            (fun rail_y ->
              match
                Amg_route.Global.drop env amp ~net:p.Port.net ~track_y:rail_y p
              with
              | Ok _ -> true
              | Error _ -> false)
            rails
        in
        if not ok then unhooked := (p.Port.net, p.Port.name) :: !unhooked
      end)
    (Lobj.ports amp);
  (* Global signal routing: the schematic's internal nets, through the
     channels and the east spine. *)
  let signal_nets =
    let external_ = Amg_circuit.Netlist.external_ports netlist @ [ vdd; vss ] in
    let nets =
      List.filter
        (fun n -> not (List.exists (String.equal n) external_))
        (Amg_circuit.Netlist.nets netlist)
    in
    (* Small-pin nets first: they have the fewest corridor choices. *)
    let min_port_width net =
      List.fold_left
        (fun acc (p : Port.t) ->
          if String.equal p.Port.net net then Int.min acc (Rect.width p.Port.rect)
          else acc)
        max_int (Lobj.ports amp)
    in
    List.stable_sort
      (fun a b -> Int.compare (min_port_width a) (min_port_width b))
      nets
  in
  let routing =
    Amg_route.Global.comb_route env amp ~share_tracks:true ~nets:signal_nets
      ~channels
      ~spine_x0:((Lobj.bbox_exn amp).Rect.x1 + um 4.)
      ()
  in
  let routing =
    { routing with
      Amg_route.Global.unrouted =
        routing.Amg_route.Global.unrouted
        @ List.map
            (fun (net, port) -> (net, "supply hookup failed at " ^ port))
            !unhooked }
  in
  (* Tie the supply rails of each net together with metal2 edge risers
     (metal2 crosses the other net's metal1 rails freely): vdd on the east
     beyond the spine, vss on the west. *)
  let m2w = Rules.width rules "metal2" in
  let tie ~net ~x =
    let rects = rail_rects net in
    let b = Lobj.bbox_exn amp in
    let east = x > Rect.center_x b in
    let ys =
      List.map
        (fun (r : Rect.t) ->
          let y = Rect.center_y r in
          (* Extend the rail's own metal out to the riser, then via. *)
          let x0 = if east then r.Rect.x1 - um 1. else r.Rect.x0 + um 1. in
          ignore
            (Path.draw amp ~layer:"metal1" ~width:(um 2.) ~net [ (x0, y); (x, y) ]);
          ignore (Wire.via env amp ~at:(x, y) ~net ());
          y)
        rects
    in
    match (ys : int list) with
    | [] -> ()
    | y :: _ ->
        let lo = List.fold_left Int.min y ys and hi = List.fold_left Int.max y ys in
        ignore (Path.draw amp ~layer:"metal2" ~width:m2w ~net [ (x, lo); (x, hi) ])
  in
  tie ~net:vdd ~x:((Lobj.bbox_exn amp).Rect.x1 + um 6.);
  tie ~net:vss ~x:((Lobj.bbox_exn amp).Rect.x0 - um 6.);
  (* Connectivity repair: hookups anchor on the piece nearest the rail, so
     a block with several same-net islands (e.g. a well tap plus a source
     strap) may leave one floating.  Extract the connectivity, find the
     remaining islands of each supply net, and drop each to its nearest
     rail until the net is one node.  A connectivity build is kept until
     the next drop is attempted: vss's first pass reads the layout vdd's
     last pass found whole, unchanged. *)
  let built = ref None in
  let connectivity () =
    match !built with
    | Some conn -> conn
    | None ->
        let conn = Amg_extract.Connectivity.build ~tech:(Env.tech env) amp in
        built := Some conn;
        conn
  in
  let repair_supply net =
    let rec pass n =
      if n <= 0 then ()
      else begin
        let conn = connectivity () in
        let comps = Amg_extract.Connectivity.label_components conn net in
        if List.length comps > 1 then begin
          (* The component containing a full-width rail is the hooked one;
             drop every other component's largest metal1 piece. *)
          let width = Rect.width (Lobj.bbox_exn amp) in
          let is_rail (_, r) = Rect.width r > width / 2 in
          let islands = List.filter (fun c -> not (List.exists is_rail c)) comps in
          let progressed = ref false in
          List.iter
            (fun pieces ->
              let m1 =
                List.filter (fun (l, _) -> String.equal l "metal1") pieces
                |> List.sort (fun (_, a) (_, b) -> Int.compare (Rect.area b) (Rect.area a))
              in
              match m1 with
              | (_, rect) :: _ ->
                  let port =
                    Port.make ~name:("repair_" ^ net) ~net ~layer:"metal1" ~rect
                  in
                  let py = Rect.center_y rect in
                  let rails =
                    List.sort
                      (fun a b -> Int.compare (abs (a - py)) (abs (b - py)))
                      (rails_of net)
                  in
                  if
                    List.exists
                      (fun rail_y ->
                        built := None;
                        match
                          Amg_route.Global.drop env amp ~net ~track_y:rail_y port
                        with
                        | Ok _ -> true
                        | Error _ -> false)
                      rails
                  then progressed := true
              | [] -> ())
            islands;
          if !progressed then pass (n - 1)
        end
      end
    in
    pass 4
  in
  repair_supply vdd;
  repair_supply vss;
  { obj = amp; routing }
