(* Cluster-to-module dispatch: realise each partition cluster with the
   library module its style calls for (§3's table of block choices). *)

module D = Amg_circuit.Device
module Netlist = Amg_circuit.Netlist
module Partition = Amg_circuit.Partition
module M = Amg_modules
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Units = Amg_geometry.Units

let polarity_of = function D.Nmos -> M.Mosfet.Nmos | D.Pmos -> M.Mosfet.Pmos

let mos_exn netlist name =
  match Netlist.find netlist name with
  | Some (D.Mos m) -> m
  | _ -> Env.reject "Blocks: %s is not a MOS device" name

let bjt_exn netlist name =
  match Netlist.find netlist name with
  | Some (D.Bjt q) -> q
  | _ -> Env.reject "Blocks: %s is not a bipolar device" name

let generate env netlist (c : Partition.cluster) =
  let name = c.Partition.cluster_name in
  match (c.Partition.style, c.Partition.device_names) with
  | Partition.Mirror_simple_style, diode :: out :: _ ->
      let d = mos_exn netlist diode and o = mos_exn netlist out in
      let well_tap = if d.D.polarity = D.Pmos then Some d.D.b else None in
      M.Current_mirror.simple env ~name ?well_tap
        ~polarity:(polarity_of d.D.polarity)
        ~w:d.D.w ~l:d.D.l ~net_g:d.D.g ~net_s:d.D.s ~net_dout:o.D.d ()
  | Partition.Mirror_symmetric_style, diode :: out :: _ ->
      let d = mos_exn netlist diode and o = mos_exn netlist out in
      let well_tap = if d.D.polarity = D.Pmos then Some d.D.b else None in
      M.Current_mirror.symmetric env ~name ?well_tap
        ~polarity:(polarity_of d.D.polarity)
        ~w:(d.D.w / 2) ~l:d.D.l ~net_g:d.D.g ~net_s:d.D.s ~net_dout:o.D.d ()
  | Partition.Cross_coupled_style, [ a; b ] ->
      let da = mos_exn netlist a and db = mos_exn netlist b in
      let well_tap = if da.D.polarity = D.Pmos then Some da.D.b else None in
      M.Cross_coupled.common_gate env ~name ?well_tap
        ~polarity:(polarity_of da.D.polarity)
        ~w:(da.D.w / 2) ~l:da.D.l ~net_s:da.D.s ~net_da:da.D.d ~net_db:db.D.d
        ~net_g:da.D.g ()
  | Partition.Common_centroid_style, [ a; b ] ->
      let da = mos_exn netlist a and db = mos_exn netlist b in
      let spec = M.Common_centroid.paper_spec in
      let fingers_per_device = 2 * spec.M.Common_centroid.pairs in
      let well_tap = if da.D.polarity = D.Pmos then Some da.D.b else None in
      M.Common_centroid.make env ~name ~spec ?well_tap
        ~polarity:(polarity_of da.D.polarity)
        ~w:(da.D.w / fingers_per_device)
        ~l:da.D.l ~net_ga:da.D.g ~net_gb:db.D.g ~net_da:da.D.d ~net_db:db.D.d
        ~net_s:da.D.s ()
  | Partition.Diff_pair_style, [ a; b ] ->
      let da = mos_exn netlist a and db = mos_exn netlist b in
      M.Diff_pair.make env ~name ~polarity:(polarity_of da.D.polarity) ~w:da.D.w
        ~l:da.D.l ~net_g1:da.D.g ~net_g2:db.D.g ~net_d1:da.D.d ~net_d2:db.D.d
        ~net_s:da.D.s ()
  | Partition.Cascode_style, [ a; b ] ->
      (* [b] sits on [a]: the shared net is a.d = b.s. *)
      let da = mos_exn netlist a and db = mos_exn netlist b in
      let mid = da.D.d in
      let arr (m : D.mos) side =
        (* The shared rail faces the other device; the outer terminal gets
           its own strap so the parent can reach it. *)
        let outer_net, outer_side =
          if side = Amg_geometry.Dir.North then (m.D.s, Amg_geometry.Dir.South)
          else (m.D.d, Amg_geometry.Dir.North)
        in
        M.Mos_array.make env ~name:(name ^ "_" ^ m.D.m_name)
          ~polarity:(polarity_of m.D.polarity) ~w:m.D.w ~l:m.D.l
          ~columns:
            [ Amg_modules.Mos_array.Row m.D.s; Amg_modules.Mos_array.Fin m.D.g;
              Amg_modules.Mos_array.Row m.D.d ]
          ~straps:
            [ { M.Mos_array.strap_net = mid; side; metal = M.Mos_array.M1 };
              { M.Mos_array.strap_net = outer_net; side = outer_side; metal = M.Mos_array.M1 } ]
          ()
      in
      M.Current_mirror.stacked_pair env ~name
        ~bottom:(arr da Amg_geometry.Dir.North)
        ~top:(arr db Amg_geometry.Dir.South)
        ()
  | Partition.Interdigitated, [ a ] ->
      let m = mos_exn netlist a in
      let fingers = Int.max 2 (m.D.w / Units.of_um 12.) in
      let well_tap = if m.D.polarity = D.Pmos then Some m.D.b else None in
      M.Interdigitated.make env ~name ?well_tap
        ~polarity:(polarity_of m.D.polarity)
        ~w:(m.D.w / fingers) ~l:m.D.l ~fingers ~net_g:m.D.g ~net_s:m.D.s
        ~net_d:m.D.d ()
  | Partition.Single, [ a ] ->
      let m = mos_exn netlist a in
      M.Mosfet.make env ~name ~polarity:(polarity_of m.D.polarity) ~w:m.D.w
        ~l:m.D.l ~net_g:m.D.g ~net_s:m.D.s ~net_d:m.D.d ()
  | Partition.Bjt_pair_style, [ a; b ] ->
      let qa = bjt_exn netlist a and qb = bjt_exn netlist b in
      M.Bipolar.symmetric_pair env ~name ~we:(Units.of_um 2.) ~le:(Units.of_um 8.)
        ~nets_1:(qa.D.e, qa.D.bb, qa.D.c)
        ~nets_2:(qb.D.e, qb.D.bb, qb.D.c)
        ()
  | Partition.Bjt_pair_style, [ a ] ->
      let qa = bjt_exn netlist a in
      M.Bipolar.make env ~name ~we:(Units.of_um 2.) ~le:(Units.of_um 8.)
        ~net_e:qa.D.e ~net_b:qa.D.bb ~net_c:qa.D.c ()
  | Partition.Passive, [ a ] -> (
      match Netlist.find netlist a with
      | Some (D.Res r) ->
          let sheet = 25. in
          let obj, _ =
            M.Resistor.make env ~name ~squares:(r.D.ohms /. sheet) ~net_a:r.D.ra
              ~net_b:r.D.rb ()
          in
          obj
      | Some (D.Cap cc) ->
          let obj, _ =
            M.Capacitor.make env ~name ~cap_ff:cc.D.ff ~net_top:cc.D.ca
              ~net_bot:cc.D.cb ()
          in
          obj
      | _ -> Env.reject "Blocks: passive cluster %s has no passive device" name)
  | style, names ->
      Env.reject "Blocks: cannot realise cluster %s (style %s, %d devices)" name
        (Partition.show_style style)
        (List.length names)
