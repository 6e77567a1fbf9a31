(* A generic, self-consistent 1 um BiCMOS rule deck.

   The paper used a proprietary 1 um Siemens BiCMOS technology; this deck is
   the synthetic substitute documented in DESIGN.md: the rule *structure*
   (which widths, spacings, enclosures and extensions exist) matches what the
   algorithms need, and the values are typical published 1 um-generation
   numbers, so areas come out in the same regime as the paper's. *)

let source =
  {|technology generic-bicmos-1u
grid 0.05
latchup 50

# name     kind      mask  electrical                  drawing
layer nwell    well      gds=1  res=2000 acap=80  fcap=0   fill=outline color=#999999
layer pbase    implant   gds=5  res=600  acap=120 fcap=0   fill=dots    color=#aa7744
layer pdiff    diffusion gds=3  res=60   acap=350 fcap=300 fill=hatch   color=#2e8b57
layer ndiff    diffusion gds=4  res=45   acap=300 fcap=250 fill=hatch   color=#66aa22
layer poly     poly      gds=10 res=25   acap=60  fcap=50  fill=hatch   color=#cc2222
layer poly2    poly      gds=11 res=30   acap=55  fcap=45  fill=backhatch color=#dd7711
layer contact  cut       gds=20 res=0    acap=0   fcap=0   fill=solid   color=#222222
layer metal1   metal1    gds=30 res=0.06 acap=30  fcap=40  fill=backhatch color=#2244cc
layer via      cut       gds=40 res=0    acap=0   fcap=0   fill=cross   color=#444444
layer metal2   metal2    gds=50 res=0.03 acap=20  fcap=30  fill=dots    color=#8833bb
layer subtap   marker    gds=60 res=0    acap=0   fcap=0   fill=outline color=#cc8888 nonconducting
layer resmark  marker    gds=61 res=0    acap=0   fcap=0   fill=outline color=#88cc88 nonconducting

width nwell 4
width pbase 3
width pdiff 2
width ndiff 2
width poly 1
width poly2 1.5
width metal1 1.5
width metal2 2

space nwell nwell 4
space nwell pdiff 2
space pdiff pdiff 2
space ndiff ndiff 2
space pdiff ndiff 3
space pbase pbase 3
space pbase ndiff 2
space poly poly 1.5
space poly pdiff 0.5
space poly ndiff 0.5
space poly2 poly2 1.5
space metal1 metal1 1.5
space metal2 metal2 2
space contact contact 1.5
space via via 1.5

enclose poly contact 0.5
enclose pdiff contact 0.75
enclose ndiff contact 0.75
enclose poly2 contact 0.75
enclose metal1 contact 0.5
enclose metal1 via 0.5
enclose metal2 via 0.5
enclose nwell pdiff 2
enclose nwell ndiff 1.5
enclose pbase ndiff 1.5
enclose pbase pdiff 1
enclose poly poly2 1

extend poly pdiff 1
extend poly ndiff 1
extend pdiff poly 1.5
extend ndiff poly 1.5

minarea poly 2.25
minarea poly2 2.25
minarea metal1 4
minarea metal2 4
minarea pdiff 4
minarea ndiff 4

cutsize contact 1
cutsize via 1
cutspace contact 1.5
cutspace via 1.5
|}

let get = Amg_robust.Once.make (fun () -> Tech_file.parse_string source)
