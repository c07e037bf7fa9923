#!/usr/bin/env bash
# Local CI: formatting, lints, tier-1 build + full test suite.
# Everything runs offline against the vendored dependency shims.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: release build =="
cargo build --release --offline
# The root package build skips workspace-member bins; the smoke below
# drives the experiment binaries, so build them explicitly.
cargo build --release --offline -p amdb-experiments
# The quickstart example regenerates the quickstart_trace.json artifact.
cargo build --release --offline --example quickstart

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests =="
cargo test -q --workspace --offline

echo "== perfbench: the benchmark's own tests =="
# The benchmark package is outside the workspace; its tests guard the
# fingerprint pins and checks it judges runs with.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== consistency suite (amdb-consistency + core acceptance properties) =="
cargo test -q --offline -p amdb-consistency
cargo test -q --offline -p amdb-core --test consistency

echo "== parallel sweep smoke (--jobs 2) + determinism =="
# The bins write results/ + BENCH_sweep.json relative to cwd; run the smoke
# from a scratch dir so quick-fidelity output never clobbers the committed
# full-fidelity CSVs.
BIN="$PWD/target/release"
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
# fig2 quick grid, serial vs 2 workers: stdout (tables) must be identical.
(cd "$SMOKE" && "$BIN/fig2" --jobs 1 >fig2_j1.out 2>/dev/null)
(cd "$SMOKE" && "$BIN/fig2" --jobs 2 >fig2_j2.out 2>/dev/null)
cmp "$SMOKE/fig2_j1.out" "$SMOKE/fig2_j2.out" \
  || { echo "fig2 output differs between --jobs 1 and --jobs 2"; exit 1; }
# AMDB_JOBS must steer the worker count the same way.
(cd "$SMOKE" && AMDB_JOBS=2 "$BIN/fig5" >fig5_env.out 2>/dev/null)
(cd "$SMOKE" && "$BIN/fig5" --jobs 1 >fig5_j1.out 2>/dev/null)
cmp "$SMOKE/fig5_j1.out" "$SMOKE/fig5_env.out" \
  || { echo "fig5 output differs between --jobs 1 and AMDB_JOBS=2"; exit 1; }
# E-C consistency sweep, serial vs 2 workers: table must be identical.
(cd "$SMOKE" && "$BIN/extensions_consistency" --jobs 1 >ec_j1.out 2>/dev/null)
(cd "$SMOKE" && "$BIN/extensions_consistency" --jobs 2 >ec_j2.out 2>/dev/null)
cmp "$SMOKE/ec_j1.out" "$SMOKE/ec_j2.out" \
  || { echo "extensions_consistency differs between --jobs 1 and --jobs 2"; exit 1; }
# E-PA parallel-apply sweep, serial vs 2 workers: the rendered table *and*
# the results CSV must be byte-identical for any jobs count.
mkdir -p "$SMOKE/pa_j1" "$SMOKE/pa_j2"
(cd "$SMOKE/pa_j1" && "$BIN/extensions_parallel_apply" --jobs 1 >pa.out 2>/dev/null)
(cd "$SMOKE/pa_j2" && "$BIN/extensions_parallel_apply" --jobs 2 >pa.out 2>/dev/null)
cmp "$SMOKE/pa_j1/pa.out" "$SMOKE/pa_j2/pa.out" \
  || { echo "extensions_parallel_apply differs between --jobs 1 and --jobs 2"; exit 1; }
cmp "$SMOKE/pa_j1/results/extensions_parallel_apply.csv" "$SMOKE/pa_j2/results/extensions_parallel_apply.csv" \
  || { echo "extensions_parallel_apply.csv differs between --jobs 1 and --jobs 2"; exit 1; }
# obs_slo SLO/alert sweep: the rendered alert timeline *and* the results
# CSV must be byte-identical for any jobs count.
mkdir -p "$SMOKE/slo_j1" "$SMOKE/slo_j2"
(cd "$SMOKE/slo_j1" && "$BIN/obs_slo" --jobs 1 >obs_slo.out 2>/dev/null)
(cd "$SMOKE/slo_j2" && "$BIN/obs_slo" --jobs 2 >obs_slo.out 2>/dev/null)
cmp "$SMOKE/slo_j1/obs_slo.out" "$SMOKE/slo_j2/obs_slo.out" \
  || { echo "obs_slo output differs between --jobs 1 and --jobs 2"; exit 1; }
cmp "$SMOKE/slo_j1/results/obs_slo_alerts.csv" "$SMOKE/slo_j2/results/obs_slo_alerts.csv" \
  || { echo "obs_slo_alerts.csv differs between --jobs 1 and --jobs 2"; exit 1; }
# fig2_sharded scale-out + cross-shard ablation: the rendered tables *and*
# every results CSV must be byte-identical for any jobs count.
mkdir -p "$SMOKE/sh_j1" "$SMOKE/sh_j2"
(cd "$SMOKE/sh_j1" && "$BIN/fig2_sharded" --jobs 1 >sharded.out 2>/dev/null)
(cd "$SMOKE/sh_j2" && "$BIN/fig2_sharded" --jobs 2 >sharded.out 2>/dev/null)
cmp "$SMOKE/sh_j1/sharded.out" "$SMOKE/sh_j2/sharded.out" \
  || { echo "fig2_sharded output differs between --jobs 1 and --jobs 2"; exit 1; }
for csv in fig2_sharded.csv fig2_sharded_p95.csv \
           fig2_sharded_cross_ablation.csv fig2_sharded_cross_ablation_p95.csv; do
  cmp "$SMOKE/sh_j1/results/$csv" "$SMOKE/sh_j2/results/$csv" \
    || { echo "$csv differs between --jobs 1 and --jobs 2"; exit 1; }
done
# E-SL shared-log extensions: backend grid, per-backend failover, and the
# log-replica fault grid — rendered tables *and* every results CSV must be
# byte-identical for any jobs count.
mkdir -p "$SMOKE/sl_j1" "$SMOKE/sl_j2"
(cd "$SMOKE/sl_j1" && "$BIN/extensions_shared_log" --jobs 1 >esl.out 2>/dev/null)
(cd "$SMOKE/sl_j2" && "$BIN/extensions_shared_log" --jobs 2 >esl.out 2>/dev/null)
cmp "$SMOKE/sl_j1/esl.out" "$SMOKE/sl_j2/esl.out" \
  || { echo "extensions_shared_log differs between --jobs 1 and --jobs 2"; exit 1; }
for csv in extensions_shared_log_backends.csv extensions_shared_log_failover.csv \
           extensions_shared_log_faults.csv; do
  cmp "$SMOKE/sl_j1/results/$csv" "$SMOKE/sl_j2/results/$csv" \
    || { echo "$csv differs between --jobs 1 and --jobs 2"; exit 1; }
done
# The fault grid's acceptance invariant: no cell loses an acked write.
awk -F, 'NR>1 && $NF != 0 { print "fault cell " $1 " lost acked writes"; bad=1 } END { exit bad }' \
  "$SMOKE/sl_j1/results/extensions_shared_log_faults.csv" \
  || { echo "shared-log fault grid lost acked writes"; exit 1; }
# The replication-backend knob must be invisible until opted into:
# `--backend statement` renders byte-identically to the flag-less default
# (whose fingerprint bench_simcore pins to the pre-backend pipeline).
(cd "$SMOKE" && "$BIN/fig2" --backend statement --jobs 1 >fig2_stmt.out 2>/dev/null)
cmp "$SMOKE/fig2_j1.out" "$SMOKE/fig2_stmt.out" \
  || { echo "fig2 --backend statement differs from the default pipeline"; exit 1; }
(cd "$SMOKE" && "$BIN/fig5" --backend statement --jobs 1 >fig5_stmt.out 2>/dev/null)
cmp "$SMOKE/fig5_j1.out" "$SMOKE/fig5_stmt.out" \
  || { echo "fig5 --backend statement differs from the default pipeline"; exit 1; }
# fleet_report (the fleet observability plane): per-shard top tables, the
# fleet alert timeline, and the OpenMetrics dump must all be byte-identical
# for any jobs count.
mkdir -p "$SMOKE/fl_j1" "$SMOKE/fl_j2"
(cd "$SMOKE/fl_j1" && "$BIN/fleet_report" --jobs 1 >fleet.out 2>/dev/null)
(cd "$SMOKE/fl_j2" && "$BIN/fleet_report" --jobs 2 >fleet.out 2>/dev/null)
cmp "$SMOKE/fl_j1/fleet.out" "$SMOKE/fl_j2/fleet.out" \
  || { echo "fleet_report output differs between --jobs 1 and --jobs 2"; exit 1; }
for art in fleet_report.csv fleet_alerts.csv fleet_metrics.prom; do
  cmp "$SMOKE/fl_j1/results/$art" "$SMOKE/fl_j2/results/$art" \
    || { echo "$art differs between --jobs 1 and --jobs 2"; exit 1; }
done
# The exposition dump must be well-formed OpenMetrics text: ends in # EOF.
tail -n 1 "$SMOKE/fl_j1/results/fleet_metrics.prom" | grep -qx '# EOF' \
  || { echo "fleet_metrics.prom does not end with # EOF"; exit 1; }

echo "== bench_sweep: serial vs parallel wall-clock =="
(cd "$SMOKE" && "$BIN/bench_sweep" --jobs 2 >/dev/null)
[ -s "$SMOKE/BENCH_sweep.json" ] || { echo "BENCH_sweep.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_sweep.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("host_cores", "jobs", "fig2_fig5", "fig3_fig6", "total_serial_s",
            "total_parallel_s", "speedup"):
    if key not in b:
        sys.exit(f"BENCH_sweep.json missing key: {key}")
for fig in ("fig2_fig5", "fig3_fig6"):
    if not b[fig]["identical"]:
        sys.exit(f"BENCH_sweep.json: {fig} serial/parallel outputs diverged")
print(f"bench_sweep ok: {b['total_serial_s']:.1f}s serial vs "
      f"{b['total_parallel_s']:.1f}s with {b['jobs']} jobs "
      f"({b['speedup']:.2f}x, {b['host_cores']} cores)")
EOF

echo "== plan cache: transparency cross-diff + hot-path speedup =="
# The statement->plan cache must be a pure speed knob: fig2 with the cache
# disabled must render byte-identically to the cached run above.
(cd "$SMOKE" && AMDB_PLAN_CACHE=off "$BIN/fig2" --jobs 1 >fig2_nocache.out 2>/dev/null)
cmp "$SMOKE/fig2_j1.out" "$SMOKE/fig2_nocache.out" \
  || { echo "fig2 output differs with AMDB_PLAN_CACHE=off — cache is not transparent"; exit 1; }
# bench_hotpath times the quick fig2/fig5 sweep cache-off vs cache-on,
# asserts identical rendered tables, and records the wall clock.
(cd "$SMOKE" && "$BIN/bench_hotpath" --jobs 1 >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_hotpath.json" ] || { echo "BENCH_hotpath.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_hotpath.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "jobs", "cache_off_s", "cache_on_s",
            "speedup", "identical"):
    if key not in b:
        sys.exit(f"BENCH_hotpath.json missing key: {key}")
if not b["identical"]:
    sys.exit("BENCH_hotpath.json: cache-on/off outputs diverged")
print(f"bench_hotpath ok: {b['cache_off_s']:.1f}s cache-off vs "
      f"{b['cache_on_s']:.1f}s cache-on ({b['speedup']:.2f}x)")
EOF

echo "== bench_apply: scheduler dispatch cost + in-order commit =="
# bench_apply times the dependency scheduler against the serial pop-one
# path over 200k synthetic row events, asserts the committed LSN order is
# identical, and re-renders the quick E-PA sweep at two jobs counts.
(cd "$SMOKE" && "$BIN/bench_apply" --jobs 2 >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_apply.json" ] || { echo "BENCH_apply.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_apply.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "jobs", "events", "serial_dispatch_s",
            "batched_dispatch_s", "dispatch_overhead", "mean_batch",
            "sweep_serial_s", "sweep_jobs_s", "in_order", "identical"):
    if key not in b:
        sys.exit(f"BENCH_apply.json missing key: {key}")
if not b["in_order"]:
    sys.exit("BENCH_apply.json: scheduler broke commit order")
if not b["identical"]:
    sys.exit("BENCH_apply.json: E-PA sweep output varies with --jobs")
if b["mean_batch"] < 1.0:
    sys.exit("BENCH_apply.json: implausible mean batch size")
print(f"bench_apply ok: dispatch {b['serial_dispatch_s']:.3f}s serial vs "
      f"{b['batched_dispatch_s']:.3f}s batched over {b['events']} events "
      f"({b['dispatch_overhead']:.2f}x, mean batch {b['mean_batch']:.2f})")
EOF

echo "== bench_simcore: sim-core raw speed + output fingerprints =="
# bench_simcore times the quick grids (best-of-3, serial) against the
# pre-program baseline and fingerprints every rendered table; the
# fingerprints are the byte contract for the whole sim-core program
# (DESIGN.md section 13) and must match the values pinned in
# crates/experiments/tests/simcore_fingerprint.rs.
(cd "$SMOKE" && "$BIN/bench_simcore" >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_simcore.json" ] || { echo "BENCH_simcore.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_simcore.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "fig2_fig5", "fig3_fig6",
            "total_baseline_s", "total_current_s", "speedup"):
    if key not in b:
        sys.exit(f"BENCH_simcore.json missing key: {key}")
pinned = {"fig2_fig5": "55294b98a489afbd", "fig3_fig6": "85d2c4117df7430a"}
for fig, fp in pinned.items():
    if b[fig]["fingerprint"] != fp:
        sys.exit(f"BENCH_simcore.json: {fig} fingerprint {b[fig]['fingerprint']} != pinned {fp}")
print(f"bench_simcore ok: {b['total_baseline_s']:.1f}s pre-program vs "
      f"{b['total_current_s']:.1f}s current ({b['speedup']:.2f}x), "
      "fingerprints pinned")
EOF
# The release-only fingerprint test re-derives the same bytes through the
# library path (serial and --jobs 4) — run it explicitly since the debug
# workspace suite skips it.
cargo test -q --release --offline -p amdb-experiments --test simcore_fingerprint

echo "== bench_sharded: sharded-tree wall-clock + output fingerprints =="
# bench_sharded times the quick fig2_sharded grid at shards {1, 4}
# (best-of-3, serial), asserts repetition-identical rendered tables, and
# records the N-tree dispatch overhead.
(cd "$SMOKE" && "$BIN/bench_sharded" >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_sharded.json" ] || { echo "BENCH_sharded.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_sharded.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "shards1", "shards4", "total_current_s",
            "tree_overhead_x"):
    if key not in b:
        sys.exit(f"BENCH_sharded.json missing key: {key}")
for grid in ("shards1", "shards4"):
    for key in ("current_s", "fingerprint"):
        if key not in b[grid]:
            sys.exit(f"BENCH_sharded.json missing key: {grid}.{key}")
print(f"bench_sharded ok: {b['shards1']['current_s']:.2f}s at 1 shard vs "
      f"{b['shards4']['current_s']:.2f}s at 4 shards "
      f"({b['tree_overhead_x']:.2f}x tree overhead)")
EOF

echo "== bench_backend: per-backend wall-clock + statement bit-identity =="
# bench_backend times the quick fig2/fig5 grid under each replication
# backend (best-of-3, serial), fingerprints the rendered tables, and binds
# the statement backend to the default pipeline's pinned fingerprint.
(cd "$SMOKE" && "$BIN/bench_backend" >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_backend.json" ] || { echo "BENCH_backend.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_backend.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "default", "statement", "row", "shared_log",
            "statement_matches_default", "shared_log_overhead_x"):
    if key not in b:
        sys.exit(f"BENCH_backend.json missing key: {key}")
for grid in ("default", "statement", "row", "shared_log"):
    for key in ("current_s", "fingerprint"):
        if key not in b[grid]:
            sys.exit(f"BENCH_backend.json missing key: {grid}.{key}")
if not b["statement_matches_default"]:
    sys.exit("BENCH_backend.json: --backend statement diverged from the default grid")
# Transitive pre-PR pin: the default grid's fingerprint is pinned by
# bench_simcore, so statement == default == pre-backend pipeline.
pinned = "55294b98a489afbd"
if b["statement"]["fingerprint"] != pinned:
    sys.exit(f"BENCH_backend.json: statement fingerprint "
             f"{b['statement']['fingerprint']} != pinned {pinned}")
print(f"bench_backend ok: statement {b['statement']['current_s']:.2f}s == default, "
      f"shared-log {b['shared_log']['current_s']:.2f}s "
      f"({b['shared_log_overhead_x']:.2f}x), fingerprint pinned")
EOF

echo "== bench_obs: disabled probes + tsdb-on telemetry overhead =="
# bench_obs asserts the two cost contracts of the observability plane:
# disabled probes compile to a discriminant test (sub-ns each) and the
# attached time-series store keeps the telemetry quick grid within 5%
# while producing bit-identical run results.
(cd "$SMOKE" && "$BIN/bench_obs" >/dev/null 2>&1)
[ -s "$SMOKE/BENCH_obs.json" ] || { echo "BENCH_obs.json missing or empty"; exit 1; }
python3 - "$SMOKE/BENCH_obs.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for key in ("bench", "host_cores", "disabled_probe_ns", "tsdb_off", "tsdb_on",
            "tsdb_overhead_x"):
    if key not in b:
        sys.exit(f"BENCH_obs.json missing key: {key}")
for grid in ("tsdb_off", "tsdb_on"):
    for key in ("current_s", "fingerprint"):
        if key not in b[grid]:
            sys.exit(f"BENCH_obs.json missing key: {grid}.{key}")
if b["disabled_probe_ns"] >= 4.0:
    sys.exit(f"BENCH_obs.json: disabled probe volley {b['disabled_probe_ns']:.3f} ns "
             "(4 probes must stay sub-ns each)")
if b["tsdb_off"]["fingerprint"] != b["tsdb_on"]["fingerprint"]:
    sys.exit("BENCH_obs.json: attaching the tsdb changed run results")
if b["tsdb_overhead_x"] > 1.05:
    sys.exit(f"BENCH_obs.json: tsdb overhead {b['tsdb_overhead_x']:.3f}x > 1.05x budget")
print(f"bench_obs ok: {b['disabled_probe_ns']:.3f} ns disabled volley, "
      f"tsdb {b['tsdb_overhead_x']:.3f}x on the telemetry quick grid")
EOF

echo "== heartbeat regression: row-format delay reads the apply stamp =="
# Pinned regression for the row-format heartbeat bug (shipped master
# timestamps measured zero delay); must stay green in isolation.
cargo test -q --offline -p amdb-repl row_format_delay_reads_apply_stamp_not_shipped_timestamp

echo "== trace artifacts regenerate deterministically =="
# quickstart_trace.json and results/obs_trace.json + obs_series.csv are
# regenerable (gitignored) artifacts; two fresh regenerations must agree
# byte-for-byte, and a repo-root copy — when present — must be fresh.
mkdir -p "$SMOKE/art1" "$SMOKE/art2"
(cd "$SMOKE/art1" && "$BIN/examples/quickstart" >quickstart.out 2>/dev/null)
(cd "$SMOKE/art2" && "$BIN/examples/quickstart" >quickstart.out 2>/dev/null)
cmp "$SMOKE/art1/quickstart.out" "$SMOKE/art2/quickstart.out" \
  || { echo "quickstart output not deterministic"; exit 1; }
cmp "$SMOKE/art1/quickstart_trace.json" "$SMOKE/art2/quickstart_trace.json" \
  || { echo "quickstart_trace.json not deterministic"; exit 1; }
if [ -f quickstart_trace.json ]; then
  cmp quickstart_trace.json "$SMOKE/art1/quickstart_trace.json" \
    || { echo "stale quickstart_trace.json — rerun the quickstart example"; exit 1; }
fi
(cd "$SMOKE/art1" && "$BIN/obs_report" >obs_report.out 2>/dev/null)
(cd "$SMOKE/art2" && "$BIN/obs_report" >obs_report.out 2>/dev/null)
cmp "$SMOKE/art1/obs_report.out" "$SMOKE/art2/obs_report.out" \
  || { echo "obs_report output not deterministic"; exit 1; }
for art in obs_trace.json obs_series.csv; do
  cmp "$SMOKE/art1/results/$art" "$SMOKE/art2/results/$art" \
    || { echo "$art not deterministic"; exit 1; }
  if [ -f "results/$art" ]; then
    cmp "results/$art" "$SMOKE/art1/results/$art" \
      || { echo "stale results/$art — rerun obs_report"; exit 1; }
  fi
done

echo "== micro-bench contract: disabled telemetry + tsdb probes stay sub-ns =="
# micro_substrates carries explicit 50M-iteration loops that assert the
# disabled-path flow probe and tsdb probe each cost < 1 ns; a regression
# panics the bench.
cargo bench --offline -p amdb-bench --bench micro_substrates | tail -n 5

echo "== micro-bench: apply scheduler dispatch vs serial pop =="
cargo bench --offline -p amdb-bench --bench micro_apply | tail -n 5

echo "== micro-bench contract: plan-cache hit beats parse+plan by >= 5x =="
# micro_sql carries an explicit loop that asserts a cached prepare is at
# least 5x faster than an uncached parse+plan; a regression panics.
cargo bench --offline -p amdb-bench --bench micro_sql | tail -n 4

echo "CI OK"
