#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation section.
# Outputs land in results/ (text) and the current directory (PGM images).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

cargo build --release --workspace

for name in table2_ablation table5_outofcore fig8_reduce_slice fig10_timeline \
            fig12_roofline fig13_strong_scaling fig14_weak_scaling fig15_gups \
            fig11_renderings \
            ir_vs_fbp nc_ablation layout_search mar_workflow; do
  echo "=== $name ==="
  cargo run --release -p scalefbp-bench -- "$name" | tee "results/$name.txt"
done

for ex in quickstart microscopy_coffee_bean clinical_cbct_outofcore distributed_cluster carm_short_scan; do
  echo "=== example: $ex ==="
  cargo run --release -p scalefbp --example "$ex" | tee "results/example_$ex.txt"
done

echo "All evaluation artefacts regenerated under results/."
