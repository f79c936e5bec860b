#!/bin/bash
# usage: pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD OUTDIR TRACE SEEDS...
# Alternates which side runs first; one file per run (the run's whole
# stdout; the last line is the result object the driver reads).
parent=$1; change=$2; wl=$3; out=$4; trace=$5; shift 5
mkdir -p "$out"; out=$(cd "$out" && pwd)
i=0
for seed in "$@"; do
  if (( i % 2 == 0 )); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ $side = parent ]; then cd "$parent"; else cd "$change"; fi
    name=${wl}_${side}_${i}_s${seed}; [ "$trace" = 1 ] && name=trace_$name
    python3 benchmarks/macro/run.py --workload $wl --seed $seed --seconds 10 --trace $trace > $out/$name.json 2> $out/$name.err
    [ -s $out/$name.err ] || rm -f $out/$name.err
  done
  i=$((i+1))
done
