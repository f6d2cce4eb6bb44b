#!/usr/bin/env bash
# Regenerates BOTH pinned-performance artifacts in one step so they
# cannot drift apart by hand:
#
#   * tests/golden/              — byte-pinned analytic SimReports
#     (barrier schedule mode: the golden executor is the paper's
#     full-chip-barrier model; interleaving is opt-in and never
#     golden-pinned)
#   * crates/bench/baselines/ci_baseline.json — the bench-smoke
#     perf-trajectory gate, regenerated exactly as CI runs it
#     (--quick, barrier AND interleaved schedule axes)
#
# Run from anywhere inside the repo; commit the resulting diff only
# for intentional model changes.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

BASELINE=crates/bench/baselines/ci_baseline.json

echo "== regenerating golden fixtures (barrier mode) =="
GOLDEN_REGEN=1 cargo test -q --test engine_determinism

echo "== regenerating ${BASELINE} =="
# Count the committed records before the file is removed, so the
# summary below can flag a sweep that silently dropped (or grew) the
# trajectory — e.g. a bin invocation that stopped emitting records.
COMMITTED_COUNT=$(git show "HEAD:${BASELINE}" 2>/dev/null | grep -o '"name":' | wc -l || echo 0)
rm -f "${BASELINE}"
cargo run --release -p compass-bench --bin topology_sweep -- --quick --json "${BASELINE}"
cargo run --release -p compass-bench --bin topology_sweep -- --quick --schedule interleaved --json "${BASELINE}"
cargo run --release -p compass-bench --bin timing_mode_sweep -- --quick --json "${BASELINE}"
# Hot-path records: the hotpath:gate:* speedup ratios are gated (they
# are same-process ratios, stable across machines); the hotpath:abs:*
# events/sec numbers and the deep ratios are trajectory-only. The
# 1.3 floor sits under the lowest depth-16 queue speedup of 29
# measured --quick runs (1.40) on a 2-core container.
cargo run --release -p compass-bench --bin engine_hotpath -- --quick --json "${BASELINE}" --min-speedup 1.3
# GA scaling records: ga:abs:* per-generation walls (trajectory-only)
# and ga:gate:* memo speedup ratios, all stamped with the
# regenerating host's parallelism so the gate never compares ratios
# across differently-sized machines. Pinned to one CPU: the committed
# records carry host parallelism 1, and a pinned bench_gate run only
# judges ga:gate:* records stamped the same. One run's ratio swings
# run to run; commit the per-record median of 20 or more pinned runs.
taskset -c 0 cargo run --release -p compass-bench --bin ga_scaling -- --quick --json "${BASELINE}"
# Open-loop serving records (serving:*): p99 latency in the gated
# makespan slot, SLO goodput in throughput_ips. Seeded synthetic
# traffic on the simulated clock — byte-deterministic everywhere.
cargo run --release -p compass-bench --bin serving_sweep -- --quick --json "${BASELINE}"

FRESH_COUNT=$(grep -o '"name":' "${BASELINE}" | wc -l)
echo "== record count: ${FRESH_COUNT} regenerated vs ${COMMITTED_COUNT} committed at HEAD =="
if [ "${FRESH_COUNT}" -ne "${COMMITTED_COUNT}" ]; then
  echo "   (count changed — make sure every added/removed record is intentional)"
fi
echo "== done; review with: git diff tests/golden ${BASELINE} =="
