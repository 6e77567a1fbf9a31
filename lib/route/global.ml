(* Global comb router for block-level assembly.

   The paper routed the amplifier's global nets by hand (§3); this module
   is the scripted equivalent: a deterministic comb topology that is easy
   to verify and always layer-legal.

   - Horizontal *trunks* run on metal1 inside reserved routing channels
     (horizontal bands between block rows).  One track per net per
     channel, staggered by a fixed pitch.
   - *Pin drops* run on metal2 from each block port straight into its
     net's track, with a via at the trunk; metal2 may cross foreign metal1
     freely, and drops of different nets have different x.
   - Nets spanning several channels are joined by a metal2 *spine* segment
     at the east edge, one x column per net.

   Every drop searches sideways for a clear corridor (no foreign metal2 in
   the way, via landing clear of foreign metal1), like the supply hook-ups.
*)

module Rect = Amg_geometry.Rect
module Units = Amg_geometry.Units
module Rules = Amg_tech.Rules
module Lobj = Amg_layout.Lobj
module Shape = Amg_layout.Shape
module Port = Amg_layout.Port
module Env = Amg_core.Env

type channel = { ch_y0 : int; ch_y1 : int }

type result = {
  routed : string list;
  unrouted : (string * string) list; (* net, reason *)
  tracks : int; (* maximum tracks used in any channel *)
}

let um = Units.of_um

(* Does no foreign-net shape on [layer] overlap [rect]?  Only shapes
   meeting the rectangle can overlap it, so the layer's margin-0
   candidates are the only ones examined. *)
let clear_of obj ~net ~layer rect =
  not
    (List.exists
       (fun (s : Shape.t) ->
         (not (Option.equal String.equal s.Shape.net (Some net)))
         && Rect.overlaps s.Shape.rect rect)
       (Lobj.near obj ~layer rect ~margin:0))

(* The via pad at (x, y) inflated by the metal1 spacing: the area that
   must be clear of foreign metal1. *)
let m1_pad_zone rules ~x ~y =
  let side = Wire.pad_size rules ~layer:"metal1" ~cut:"via" in
  Rect.inflate
    (Rect.of_center ~cx:x ~cy:y ~w:side ~h:side)
    (Option.value ~default:0 (Rules.space rules "metal1" "metal1"))

(* Is the vertical metal2 corridor at [x] between the two y's clear of
   foreign-net metal2, with the via landing at [via_y] clear of foreign
   metal1? *)
let corridor_clear env obj ~net ~x ~y_from ~y_to ~via_y =
  let rules = Env.rules env in
  let m2s = Rules.space_exn rules "metal2" "metal2" in
  (* Clearance covers the wire, its via pads (which overhang the segment
     ends), and the spacing rule, inflated uniformly so diagonal (L-inf)
     proximity is caught as well. *)
  let half = (Wire.pad_size rules ~layer:"metal2" ~cut:"via" / 2) + m2s in
  let corridor =
    Rect.inflate
      (Rect.make ~x0:x ~y0:(Int.min y_from y_to) ~x1:x ~y1:(Int.max y_from y_to))
      half
  in
  clear_of obj ~net ~layer:"metal2" corridor
  && clear_of obj ~net ~layer:"metal1" (m1_pad_zone rules ~x ~y:via_y)

(* Candidate x positions for a drop, centre first, then alternating 1 um
   steps outward across the whole port plus half a via pad on either side
   (the pad only has to overlap the port metal to connect). *)
let candidates env (p : Port.t) =
  let rules = Env.rules env in
  let slack = Wire.pad_size rules ~layer:p.Port.layer ~cut:"via" / 2 in
  let cx = Rect.center_x p.Port.rect in
  let step = um 1. in
  let reach = 2 + ((Rect.width p.Port.rect + (2 * slack)) / step) in
  let inside =
    List.filter
      (fun x -> x >= p.Port.rect.Rect.x0 - slack && x <= p.Port.rect.Rect.x1 + slack)
      (List.init ((2 * reach) + 1) (fun i ->
           let k = ((i + 1) / 2) * if i mod 2 = 0 then 1 else -1 in
           cx + (k * step)))
  in
  match inside with [] -> [ cx ] | _ -> inside

(* Drop from a port to the track at [track_y].

   A port is a hull and can be hollow, so the drop first picks an *anchor*:
   an actual same-net shape on the port's layer inside the port, nearest
   the track.  The metal2 riser runs from the anchor to the track, with a
   via at the anchor when it is metal1 (its pad checked against foreign
   metal1) and always a via at the trunk. *)
let drop env obj ?(avoid = []) ~net ~track_y (p : Port.t) =
  let rules = Env.rules env in
  let m2w = Rules.width rules "metal2" in
  let on_m1 = String.equal p.Port.layer "metal1" in
  (* [near] lists the port layer's shapes in insertion order, so the
     stable sort breaks distance ties exactly as a scan of the store
     would. *)
  let anchors =
    List.filter
      (fun (s : Shape.t) ->
        Option.equal String.equal s.Shape.net (Some net)
        && Rect.overlaps s.Shape.rect p.Port.rect)
      (Lobj.near obj ~layer:p.Port.layer p.Port.rect ~margin:0)
    |> List.stable_sort (fun (a : Shape.t) (b : Shape.t) ->
           Int.compare
             (abs (Rect.center_y a.Shape.rect - track_y))
             (abs (Rect.center_y b.Shape.rect - track_y)))
  in
  let pin_pad_clear ~x ~py =
    (not on_m1) || clear_of obj ~net ~layer:"metal1" (m1_pad_zone rules ~x ~y:py)
  in
  let try_anchor (a : Shape.t) =
    let py = Rect.center_y a.Shape.rect in
    let fake =
      Amg_layout.Port.make ~name:"anchor" ~net ~layer:p.Port.layer
        ~rect:a.Shape.rect
    in
    let try_x x =
      pin_pad_clear ~x ~py
      && corridor_clear env obj ~net ~x ~y_from:py ~y_to:track_y ~via_y:track_y
    in
    (* Prefer positions away from other nets' small pins so we do not
       wall them in. *)
    let penalty x =
      if List.exists (fun ax -> abs (x - ax) < um 5.) avoid then 1 else 0
    in
    let ordered =
      List.stable_sort
        (fun a b -> Int.compare (penalty a) (penalty b))
        (candidates env fake)
    in
    Option.map (fun x -> (x, py)) (List.find_opt try_x ordered)
  in
  let rec first = function
    | [] ->
        Error
          (Printf.sprintf "no clear corridor for pin %s at [%d,%d-%d,%d]"
             p.Port.name p.Port.rect.Rect.x0 p.Port.rect.Rect.y0
             p.Port.rect.Rect.x1 p.Port.rect.Rect.y1)
    | a :: rest -> (
        match try_anchor a with Some r -> Ok r | None -> first rest)
  in
  match first anchors with
  | Error e -> Error e
  | Ok (x, py) ->
      if on_m1 then ignore (Wire.via env obj ~at:(x, py) ~net ());
      let _ =
        Path.draw obj ~layer:"metal2" ~width:m2w ~net [ (x, py); (x, track_y) ]
      in
      ignore (Wire.via env obj ~at:(x, track_y) ~net ());
      Ok x

(* Nearest channel to a y coordinate. *)
let nearest_channel channels y =
  let dist c = Int.min (abs (y - c.ch_y0)) (abs (y - c.ch_y1)) in
  match channels with
  | [] -> None
  | c :: cs -> Some (List.fold_left (fun best c -> if dist c < dist best then c else best) c cs)

(* Route the given nets.  [channels] are the reserved horizontal bands
   (they must be empty of metal1); [spine_x0] is the west edge of the
   reserved spine region on the east side.

   With [share_tracks] (left-edge channel routing) nets whose horizontal
   extents do not overlap share a track: intervals are collected in a
   pre-pass, sorted by left edge, and each is placed on the first track
   whose previous occupant ends before it starts. *)
let comb_route env obj ?(share_tracks = false) ~nets ~channels ~spine_x0 () =
  let rules = Env.rules env in
  let m1w = Rules.width rules "metal1" in
  let m2w = Rules.width rules "metal2" in
  let pitch = um 4. in
  (* Pre-pass for track sharing: per channel, each net's x interval
     (pins plus the spine when it spans several channels). *)
  let shared_assignment = Hashtbl.create 8 in
  let tracks_used = Hashtbl.create 4 in
  if share_tracks then begin
    let intervals = Hashtbl.create 8 in
    List.iteri
      (fun i net ->
        let pins =
          List.filter (fun (p : Port.t) -> String.equal p.Port.net net) (Lobj.ports obj)
        in
        if List.length pins >= 2 then begin
          let chs = Hashtbl.create 4 in
          List.iter
            (fun (p : Port.t) ->
              match nearest_channel channels (Rect.center_y p.Port.rect) with
              | Some c ->
                  let x = Rect.center_x p.Port.rect in
                  let lo, hi =
                    Option.value ~default:(x, x)
                      (Hashtbl.find_opt chs (c.ch_y0, c.ch_y1))
                  in
                  Hashtbl.replace chs (c.ch_y0, c.ch_y1) (Int.min lo x, Int.max hi x)
              | None -> ())
            pins;
          let multi = Hashtbl.length chs > 1 in
          Hashtbl.iter
            (fun ch (lo, hi) ->
              let hi = if multi then Int.max hi (spine_x0 + (i * pitch)) else hi in
              (* Slack for drop shifts and via pads. *)
              let cur = Option.value ~default:[] (Hashtbl.find_opt intervals ch) in
              Hashtbl.replace intervals ch ((net, lo - um 6., hi + um 6.) :: cur))
            chs
        end)
      nets;
    Hashtbl.iter
      (fun ch ivs ->
        let sorted = List.sort (fun (_, l1, _) (_, l2, _) -> Int.compare l1 l2) ivs in
        (* track index -> rightmost end *)
        let track_end = Hashtbl.create 8 in
        List.iter
          (fun (net, lo, hi) ->
            let rec place k =
              match Hashtbl.find_opt track_end k with
              | Some e when e > lo -> place (k + 1)
              | _ ->
                  Hashtbl.replace track_end k hi;
                  Hashtbl.replace shared_assignment (net, ch) k
            in
            place 0)
          sorted;
        Hashtbl.replace tracks_used ch (Hashtbl.length track_end))
      intervals
  end;
  (* Tracks are allocated per channel, bottom up. *)
  let next_track = Hashtbl.create 4 in
  let track_of_index (c : int * int) k =
    let y0, y1 = c in
    let y = y0 + um 1. + (k * pitch) + (m1w / 2) in
    if y + (m1w / 2) + um 1. > y1 then None else Some y
  in
  let alloc_track ~net (c : int * int) =
    if share_tracks then
      match Hashtbl.find_opt shared_assignment (net, c) with
      | Some k -> track_of_index c k
      | None -> None
    else begin
      let k = Option.value ~default:0 (Hashtbl.find_opt next_track c) in
      match track_of_index c k with
      | Some y ->
          Hashtbl.replace next_track c (k + 1);
          Some y
      | None -> None
    end
  in
  let routed = ref [] and unrouted = ref [] in
  List.iteri
    (fun i net ->
      let pins = List.filter (fun (p : Port.t) -> String.equal p.Port.net net) (Lobj.ports obj) in
      let avoid =
        List.filter_map
          (fun (p : Port.t) ->
            if
              (not (String.equal p.Port.net net))
              && Rect.width p.Port.rect <= um 8.
            then Some (Rect.center_x p.Port.rect)
            else None)
          (Lobj.ports obj)
      in
      match pins with
      | [] | [ _ ] -> unrouted := (net, "fewer than two pins") :: !unrouted
      | _ -> (
          (* Group pins by their nearest channel. *)
          let by_channel = Hashtbl.create 4 in
          let ok = ref true in
          List.iter
            (fun (p : Port.t) ->
              match nearest_channel channels (Rect.center_y p.Port.rect) with
              | Some c ->
                  let cur = Option.value ~default:[] (Hashtbl.find_opt by_channel (c.ch_y0, c.ch_y1)) in
                  Hashtbl.replace by_channel (c.ch_y0, c.ch_y1) (p :: cur)
              | None -> ok := false)
            pins;
          if not !ok then unrouted := (net, "no channel") :: !unrouted
          else begin
            let spine_x = spine_x0 + (i * pitch) in
            let multi = Hashtbl.length by_channel > 1 in
            let track_ys = ref [] in
            let failures = ref [] in
            Hashtbl.iter
              (fun ch ch_pins ->
                match alloc_track ~net ch with
                | None -> failures := "channel full" :: !failures
                | Some track_y ->
                track_ys := track_y :: !track_ys;
                (* Drops first (they may shift x), then the trunk spanning
                   all of them, extended to the spine when needed. *)
                let xs =
                  List.filter_map
                    (fun p ->
                      match drop env obj ~avoid ~net ~track_y p with
                      | Ok x -> Some x
                      | Error e ->
                          failures := e :: !failures;
                          None)
                    ch_pins
                in
                match xs with
                | [] ->
                    failures :=
                      Printf.sprintf "no drop succeeded in channel y=%d" (fst ch)
                      :: !failures
                | _ ->
                    let lo = List.fold_left Int.min (List.hd xs) xs in
                    let hi = List.fold_left Int.max (List.hd xs) xs in
                    let hi = if multi then Int.max hi spine_x else hi in
                    let _ =
                      Path.draw obj ~layer:"metal1" ~width:m1w ~net
                        [ (lo, track_y); (hi, track_y) ]
                    in
                    if multi then ignore (Wire.via env obj ~at:(spine_x, track_y) ~net ()))
              by_channel;
            (* Spine segment joining the channels. *)
            if multi then begin
              let ys = List.sort Int.compare !track_ys in
              let _ =
                Path.draw obj ~layer:"metal2" ~width:m2w ~net
                  [ (spine_x, List.hd ys); (spine_x, List.nth ys (List.length ys - 1)) ]
              in
              ()
            end;
            match !failures with
            | [] -> routed := net :: !routed
            | fs -> unrouted := (net, String.concat "; " fs) :: !unrouted
          end))
    nets;
  let max_tracks = Hashtbl.fold (fun _ n acc -> Int.max acc n) tracks_used 0 in
  { routed = List.rev !routed; unrouted = List.rev !unrouted;
    tracks = (if share_tracks then max_tracks else List.length nets) }
