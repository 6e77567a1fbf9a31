#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run the benchmark.
# Run from the root of a checkout; arguments go to `amgperf run`, e.g.
#
#   bash bench/perf/run.sh --workload search_cold --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  The dune cache is off so that nothing is
# written outside the checkout.
set -euo pipefail
dune build --root . --cache=disabled bench/perf/amgperf.exe bin/amgend.exe 1>&2
exec ./_build/default/bench/perf/amgperf.exe run \
  --amgend ./_build/default/bin/amgend.exe "$@"
