(** Global comb router for block-level assemblies.

    Horizontal metal1 trunks in reserved channels (one staggered track per
    net), metal2 pin drops with vias, and a metal2 east-edge spine joining
    a net's tracks across channels.  The scripted stand-in for the paper's
    manual global routing of the amplifier (§3). *)

type channel = { ch_y0 : int; ch_y1 : int }

type result = {
  routed : string list;
  unrouted : (string * string) list;  (** net, reason *)
  tracks : int;  (** maximum tracks used in any channel *)
}

val drop :
  Amg_core.Env.t ->
  Amg_layout.Lobj.t ->
  ?avoid:int list ->
  net:string ->
  track_y:int ->
  Amg_layout.Port.t ->
  (int, string) Stdlib.result
(** Connect one port down/up to a track; returns the x used.  [avoid]
    lists x centres of other nets' small pins — clear positions away from
    them are preferred so those pins are not walled in. *)

val comb_route :
  Amg_core.Env.t ->
  Amg_layout.Lobj.t ->
  ?share_tracks:bool ->
  nets:string list ->
  channels:channel list ->
  spine_x0:int ->
  unit ->
  result
(** Route each net with at least two ports.  Channels must be free of
    foreign metal1 at the used tracks; net index determines the spine
    offsets, so results are deterministic.  With [share_tracks] (default
    false), non-overlapping nets share tracks by the classic left-edge
    channel-routing assignment. *)
