#!/bin/bash
# usage: pairs.sh WORKLOAD OUTDIR SEEDS...   (alternates which side runs first)
wl=$1; out=$2; shift 2
mkdir -p $out
i=0
for seed in "$@"; do
  if (( i % 2 == 0 )); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    cd /root/scratch/$side
    python3 benchmarks/macro/run.py --workload $wl --seed $seed --seconds 10 --trace 0 > $out/${wl}_${side}_${i}_s${seed}.json 2> $out/${wl}_${side}_${i}_s${seed}.err
  done
  i=$((i+1))
done
