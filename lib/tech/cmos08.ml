(* A second rule deck: a generic 0.8 um single-poly CMOS process.

   Its purpose is the paper's headline property — module sources are
   technology independent because the environment fulfils the rules
   automatically (§4): every generator in this repository builds DRC-clean
   under both this deck and {!Bicmos1u} without a single source change
   (see the tests and the TECH-INDEP bench section).

   No poly2 and no pbase: capacitors and bipolars are BiCMOS-only
   (generators that need an absent layer reject, which is itself the
   correct technology-independence behaviour). *)

let source =
  {|technology generic-cmos-08u
grid 0.05
latchup 40

layer nwell    well      gds=1  res=1500 acap=60  fcap=0   fill=outline color=#999999
layer pdiff    diffusion gds=3  res=70   acap=420 fcap=330 fill=hatch   color=#2e8b57
layer ndiff    diffusion gds=4  res=55   acap=360 fcap=280 fill=hatch   color=#66aa22
layer poly     poly      gds=10 res=28   acap=75  fcap=60  fill=hatch   color=#cc2222
layer contact  cut       gds=20 res=0    acap=0   fcap=0   fill=solid   color=#222222
layer metal1   metal1    gds=30 res=0.07 acap=35  fcap=45  fill=backhatch color=#2244cc
layer via      cut       gds=40 res=0.05 acap=0   fcap=0   fill=cross   color=#444444
layer metal2   metal2    gds=50 res=0.04 acap=22  fcap=34  fill=dots    color=#8833bb
layer subtap   marker    gds=60 res=0    acap=0   fcap=0   fill=outline color=#cc8888 nonconducting
layer resmark  marker    gds=61 res=0    acap=0   fcap=0   fill=outline color=#88cc88 nonconducting

width nwell 3.2
width pdiff 1.6
width ndiff 1.6
width poly 0.8
width metal1 1.2
width metal2 1.6

space nwell nwell 3.2
space nwell pdiff 1.6
space pdiff pdiff 1.6
space ndiff ndiff 1.6
space pdiff ndiff 2.4
space poly poly 1.2
space poly pdiff 0.4
space poly ndiff 0.4
space metal1 metal1 1.2
space metal2 metal2 1.6
space contact contact 1.2
space via via 1.2

enclose poly contact 0.4
enclose pdiff contact 0.6
enclose ndiff contact 0.6
enclose metal1 contact 0.4
enclose metal1 via 0.4
enclose metal2 via 0.4
enclose nwell pdiff 1.6
enclose nwell ndiff 1.2

extend poly pdiff 0.8
extend poly ndiff 0.8
extend pdiff poly 1.2
extend ndiff poly 1.2

minarea poly 1.44
minarea metal1 2.56
minarea metal2 2.56

cutsize contact 0.8
cutsize via 0.8
cutspace contact 1.2
cutspace via 1.2
|}

let get = Amg_robust.Once.make (fun () -> Tech_file.parse_string source)
