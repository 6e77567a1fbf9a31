(* GDSII stream format writer and (minimal) reader.

   Enough of the format for real interchange: one library, one structure,
   BOUNDARY elements for every shape, layer numbers from the technology.
   The reader parses what the writer emits (plus unknown-record skipping),
   which gives a verifiable round trip. *)

module Rect = Amg_geometry.Rect
module Technology = Amg_tech.Technology
module Layer = Amg_tech.Layer

(* --- record encoding --- *)

let u16 b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let u32 b v =
  u16 b ((v asr 16) land 0xffff);
  u16 b (v land 0xffff)

(* GDS 8-byte excess-64 floating point. *)
let gds_real b f =
  if f = 0. then (u32 b 0; u32 b 0)
  else begin
    let sign = if f < 0. then 0x80 else 0 in
    let m = ref (Float.abs f) in
    let e = ref 64 in
    while !m >= 1. do
      m := !m /. 16.;
      incr e
    done;
    while !m < 1. /. 16. do
      m := !m *. 16.;
      decr e
    done;
    (* 56-bit mantissa *)
    let mant = Int64.of_float (!m *. 72057594037927936.0 (* 2^56 *)) in
    Buffer.add_char b (Char.chr (sign lor !e));
    for i = 6 downto 0 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical mant (i * 8)) 0xffL)))
    done
  end

let record b ~tag payload =
  u16 b (4 + String.length payload);
  u16 b tag;
  Buffer.add_string b payload

let record_u16s b ~tag vs =
  let p = Buffer.create 8 in
  List.iter (fun v -> u16 p v) vs;
  record b ~tag (Buffer.contents p)

let record_u32s b ~tag vs =
  let p = Buffer.create 16 in
  List.iter (fun v -> u32 p v) vs;
  record b ~tag (Buffer.contents p)

let record_string b ~tag s =
  (* pad to even length *)
  let s = if String.length s mod 2 = 0 then s else s ^ "\000" in
  record b ~tag s

let record_reals b ~tag vs =
  let p = Buffer.create 16 in
  List.iter (fun v -> gds_real p v) vs;
  record b ~tag (Buffer.contents p)

(* Record tags (tag = type byte << 8 | data-type byte). *)
let header = 0x0002
let bgnlib = 0x0102
let libname = 0x0206
let units = 0x0305
let endlib = 0x0400
let bgnstr = 0x0502
let strname = 0x0606
let endstr = 0x0700
let boundary = 0x0800
let layer_tag = 0x0d02
let datatype = 0x0e02
let xy = 0x1003
let endel = 0x1100

let timestamp = [ 1996; 3; 11; 0; 0; 0 ]

let to_bytes ~tech obj =
  let b = Buffer.create 16384 in
  record_u16s b ~tag:header [ 600 ];
  record_u16s b ~tag:bgnlib (timestamp @ timestamp);
  record_string b ~tag:libname "AMG";
  (* database unit: 1 nm; user unit: 1 um. *)
  record_reals b ~tag:units [ 0.001; 1e-9 ];
  record_u16s b ~tag:bgnstr (timestamp @ timestamp);
  record_string b ~tag:strname (Lobj.name obj);
  List.iter
    (fun (s : Shape.t) ->
      match Technology.layer tech s.Shape.layer with
      | None -> ()
      | Some l when l.Layer.kind = Layer.Marker -> ()
      | Some l ->
          record b ~tag:boundary "";
          record_u16s b ~tag:layer_tag [ l.Layer.gds ];
          record_u16s b ~tag:datatype [ 0 ];
          let r = s.Shape.rect in
          record_u32s b ~tag:xy
            [ r.Rect.x0; r.Rect.y0; r.Rect.x1; r.Rect.y0; r.Rect.x1; r.Rect.y1;
              r.Rect.x0; r.Rect.y1; r.Rect.x0; r.Rect.y0 ];
          record b ~tag:endel "")
    (Lobj.shapes obj);
  record b ~tag:endstr "";
  record b ~tag:endlib "";
  Buffer.contents b

let save ~tech obj path =
  let oc = open_out_bin path in
  output_string oc (to_bytes ~tech obj);
  close_out oc

(* --- minimal reader: structure name + (gds layer, rect) boundaries --- *)

exception Bad_gds of string

let read_u16 s i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1]

let read_i32 s i =
  let v =
    (Char.code s.[i] lsl 24)
    lor (Char.code s.[i + 1] lsl 16)
    lor (Char.code s.[i + 2] lsl 8)
    lor Char.code s.[i + 3]
  in
  (* sign-extend *)
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let parse bytes =
  let n = String.length bytes in
  let name = ref "" in
  let shapes = ref [] in
  let cur_layer = ref 0 in
  let cur_xy = ref [] in
  let i = ref 0 in
  while !i + 4 <= n do
    let len = read_u16 bytes !i in
    if len < 4 then raise (Bad_gds "record length < 4");
    let tag = read_u16 bytes (!i + 2) in
    let payload_at = !i + 4 and payload_len = len - 4 in
    if payload_at + payload_len > n then raise (Bad_gds "truncated record");
    if tag = strname then
      name :=
        String.trim
          (String.concat ""
             (List.filter_map
                (fun j ->
                  let c = bytes.[payload_at + j] in
                  if c = '\000' then None else Some (String.make 1 c))
                (List.init payload_len Fun.id)))
    else if tag = layer_tag then cur_layer := read_u16 bytes payload_at
    else if tag = xy then begin
      let pts = payload_len / 8 in
      cur_xy :=
        List.init pts (fun k ->
            (read_i32 bytes (payload_at + (8 * k)), read_i32 bytes (payload_at + (8 * k) + 4)))
    end
    else if tag = endel then begin
      (match !cur_xy with
      | (x0, y0) :: _ as pts ->
          let xs = List.map fst pts and ys = List.map snd pts in
          let x1 = List.fold_left Int.max x0 xs and y1 = List.fold_left Int.max y0 ys in
          let x0 = List.fold_left Int.min x0 xs and y0 = List.fold_left Int.min y0 ys in
          shapes := (!cur_layer, Rect.make ~x0 ~y0 ~x1 ~y1) :: !shapes
      | [] -> ());
      cur_xy := []
    end;
    i := !i + len
  done;
  (!name, List.rev !shapes)

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  parse bytes

(* Import: map GDS layer numbers back through the technology to layer
   names and rebuild a layout object.  Boundaries on numbers the deck does
   not declare are collected in [dropped] rather than silently lost. *)
let import ~tech bytes =
  let name, raw = parse bytes in
  let by_gds =
    List.map (fun (l : Layer.t) -> (l.Layer.gds, l.Layer.name)) (Technology.layers tech)
  in
  let obj = Lobj.create (if name = "" then "gds_import" else name) in
  let dropped = ref [] in
  List.iter
    (fun (g, rect) ->
      match List.assoc_opt g by_gds with
      | Some layer -> ignore (Lobj.add_shape obj ~layer ~rect ())
      | None -> dropped := g :: !dropped)
    raw;
  (obj, List.sort_uniq compare !dropped)

let import_file ~tech path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  import ~tech bytes
