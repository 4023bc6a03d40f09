#!/bin/sh
# Run a parent commit and a change in ten alternating pairs, the parent
# first in odd pairs, for tools/perf_gate.py to judge:
#
#   tools/perf_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT RUNS_DIR
#   python3 tools/perf_gate.py RUNS_DIR/parent_*.json -- RUNS_DIR/change_*.json
#   python3 tools/perf_gate.py RUNS_DIR/parent_*.out -- RUNS_DIR/change_*.out
#
# Each run happens in its side's own checkout, with that side's build:
#   build/tools/melody_perfsuite --quick    -> RUNS_DIR/SIDE_suite_NN.json
#   e2ebench/run.py --seed 1 --seconds 5 --trace 0, for wire_serve and
#   state_move                              -> RUNS_DIR/SIDE_WORKLOAD_NN.out
# Each checkout needs a Release build of melody_perfsuite in build/.
# e2ebench/run.py builds its own tree in the checkout's .bench_build/ on
# first use; CARGO_TARGET_DIR is unset so that the two sides never share
# one.
set -eu

if [ $# -ne 3 ]; then
  echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT RUNS_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
runs=$(cd "$3" && pwd)

run_side() {  # SIDE CHECKOUT PAIR
  (
    cd "$2"
    ./build/tools/melody_perfsuite --quick --out "$runs/$1_suite_$3.json" >&2
    for workload in wire_serve state_move; do
      env -u CARGO_TARGET_DIR python3 e2ebench/run.py --workload "$workload" \
          --seed 1 --seconds 5 --trace 0 > "$runs/$1_${workload}_$3.out"
    done
  )
}

for pair in 01 02 03 04 05 06 07 08 09 10; do
  case $pair in
    0[13579]) run_side parent "$parent" $pair; run_side change "$change" $pair ;;
    *) run_side change "$change" $pair; run_side parent "$parent" $pair ;;
  esac
done
