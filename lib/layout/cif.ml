module Rect = Amg_geometry.Rect
module Technology = Amg_tech.Technology

(* CIF distance unit is a centimicron = 10 nm. *)
let cif_unit = 10

let to_cif nm =
  (* Round to nearest centimicron; generated geometry is on a >= 50 nm grid
     so this is exact in practice. *)
  (nm + (cif_unit / 2)) / cif_unit

(* CIF layer names must be short alphanumerics; derive from the layer name. *)
let cif_layer_name lname =
  let b = Buffer.create 4 in
  String.iter
    (fun c ->
      if Buffer.length b < 4 then
        match c with
        | 'a' .. 'z' -> Buffer.add_char b (Char.uppercase_ascii c)
        | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b c
        | _ -> ())
    lname;
  if Buffer.length b = 0 then "LX" else Buffer.contents b

(* [n] in decimal, as [Printf "%d"] writes it, straight into [b].  The
   digits are taken from [n] itself, negative or not (OCaml's [/] and
   [mod] truncate toward zero), so [min_int] needs no special case. *)
let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  let rec digits n =
    if n <> 0 then begin
      digits (n / 10);
      Buffer.add_char b (Char.unsafe_chr (48 + abs (n mod 10)))
    end
  in
  if n = 0 then Buffer.add_char b '0' else digits n

let of_lobj ~tech obj =
  let b = Buffer.create 4096 in
  Buffer.add_string b "(CIF file: ";
  Buffer.add_string b (Lobj.name obj);
  Buffer.add_string b ", technology ";
  Buffer.add_string b (Technology.name tech);
  Buffer.add_string b ");\nDS 1 1 1;\n";
  let by_layer = Hashtbl.create 16 in
  Array.iter (fun (name, shapes) -> Hashtbl.replace by_layer name shapes) (Lobj.shapes_by_layer obj);
  List.iter
    (fun lname ->
      match Hashtbl.find_opt by_layer lname with
      | None -> ()
      | Some shapes ->
          Buffer.add_string b "L ";
          Buffer.add_string b (cif_layer_name lname);
          Buffer.add_string b ";\n";
          Array.iter
            (fun (s : Shape.t) ->
              let r = s.rect in
              (* B width height centerx centery *)
              Buffer.add_string b "B ";
              add_int b (to_cif (Rect.width r));
              Buffer.add_char b ' ';
              add_int b (to_cif (Rect.height r));
              Buffer.add_char b ' ';
              add_int b (to_cif ((r.Rect.x0 + r.Rect.x1) / 2));
              Buffer.add_char b ' ';
              add_int b (to_cif ((r.Rect.y0 + r.Rect.y1) / 2));
              Buffer.add_string b ";\n")
            shapes)
    (Technology.layer_names tech);
  Buffer.add_string b "DF;\nC 1;\nE\n";
  Buffer.contents b

let save ~tech obj path =
  let oc = open_out path in
  output_string oc (of_lobj ~tech obj);
  close_out oc
