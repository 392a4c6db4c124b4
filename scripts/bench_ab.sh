#!/bin/sh
# Paired A/B runs of the end-to-end benchmark: a parent checkout against
# this one, on one workload, then the compare.py verdict.
#
#   scripts/bench_ab.sh PARENT_DIR WORKLOAD [PAIRS] [SEED0]
#
# Pair i (0-based) runs both sides with seed SEED0+i. Even pairs run the
# parent first and odd pairs the change first, so a slow phase of the
# host lands on both sides equally. Each side's ptsto.benchmark/1
# records are appended to bench-ab/parent.jsonl and bench-ab/change.jsonl
# at the root of this checkout, so compare.py pairs the i-th run of one
# file with the i-th of the other; delete them between unrelated A/Bs.
# Each run lasts the benchmark's own default run length.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_DIR WORKLOAD [PAIRS] [SEED0]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
pairs=${3:-10}
seed0=${4:-0}
change=$(cd "$(dirname "$0")/.." && pwd)
out=$change/bench-ab
exe=_build/default/benchmark/ptsto_bench.exe

for side in "$parent" "$change"; do
  (cd "$side" && dune build --root . "./benchmark/ptsto_bench.exe")
done
mkdir -p "$out"

# run SIDE_DIR SEED FILE: one untraced run, records appended to FILE
run() {
  (cd "$1" && "./$exe" --workload "$workload" --seed "$2" --trace 0) \
    | grep -F '"schema":"ptsto.benchmark/1"' >> "$3"
}

i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 0 ]; then
    run "$parent" "$seed" "$out/parent.jsonl"
    run "$change" "$seed" "$out/change.jsonl"
  else
    run "$change" "$seed" "$out/change.jsonl"
    run "$parent" "$seed" "$out/parent.jsonl"
  fi
  i=$((i + 1))
  echo "pair $i/$pairs done (seed $seed)" >&2
done

python3 "$change/benchmark/compare.py" "$out/parent.jsonl" "$out/change.jsonl"
