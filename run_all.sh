#!/bin/bash
# Regenerates every table and figure at full scale into results/. No row
# records host time, so every committed result depends only on the code and
# the seed (CI reruns this script and diffs results/).
set -euo pipefail
cd "$(dirname "$0")"
BIN="cargo run --release -q -p llumnix-bench --bin"
$BIN table1_distributions -- --json results/table1.json | tee results/table1.txt
$BIN fig03_preemption -- --json results/fig03.json | tee results/fig03.txt
$BIN fig04_decode_latency -- --json results/fig04.json | tee results/fig04.txt
$BIN fig05_fragmentation_motivation -- --json results/fig05.json | tee results/fig05.txt
$BIN fig10_migration -- --json results/fig10.json | tee results/fig10.txt
$BIN fig11_serving -- --json results/fig11.json | tee results/fig11.txt
$BIN fig12_fragmentation_timeline -- --json results/fig12.json | tee results/fig12.txt
$BIN fig13_priorities -- --json results/fig13.json | tee results/fig13.txt
$BIN fig14_autoscaling -- --json results/fig14.json | tee results/fig14.txt
$BIN fig15_cost_latency -- --json results/fig15.json | tee results/fig15.txt
$BIN fig16_scalability -- --json results/fig16.json | tee results/fig16.txt
$BIN fig17_churn -- --json results/fig17.json | tee results/fig17.txt
$BIN ablations | tee results/ablations.txt
echo ALL_DONE
