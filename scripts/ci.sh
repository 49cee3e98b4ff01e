#!/usr/bin/env bash
# Tier-1 gate plus lint hygiene, in the order a failure is cheapest to
# surface. Run from anywhere; everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples"
cargo build --release --examples

echo "==> cargo test"
cargo test -q

echo "==> cargo test (member crates: unit, property and doc tests)"
# The root package's tests ran just above; this adds every other
# workspace member's own suites.
cargo test -q --workspace --exclude tero

echo "==> trace determinism (trace_explore twice, byte-compare + JSON parse)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/a.json" > "$trace_dir/a.out"
cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/b.json" > "$trace_dir/b.out"
cmp "$trace_dir/a.json" "$trace_dir/b.json" \
  || { echo "FAIL: chrome trace differs across identical runs"; exit 1; }
cmp "$trace_dir/a.out" "$trace_dir/b.out" \
  || { echo "FAIL: trace_explore stdout differs across identical runs"; exit 1; }
# The JSON must round-trip through the workspace's own serde_json.
cargo test -q --test determinism chrome_trace_parses -- --exact >/dev/null \
  || { echo "FAIL: chrome trace is not valid JSON"; exit 1; }

echo "==> window determinism (trace_explore single-shot vs 4 windows, funnel compare)"
# The third argument drives the run through Tero::run_window in N equal
# slices and prints the sample funnel only; the funnel must be
# byte-identical between the legacy single-shot path and any schedule.
cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/w1.json" 1 > "$trace_dir/w1.out"
cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/w4.json" 4 > "$trace_dir/w4.out"
cmp "$trace_dir/w1.out" "$trace_dir/w4.out" \
  || { echo "FAIL: sample funnel differs between single-shot and windowed runs"; exit 1; }

echo "==> serving determinism (serve_explore twice + windowed, stdout byte-compare)"
# Everything serve_explore prints derives from the committed sketches
# (byte-identical across schedules by contract) and seed-pinned query
# streams; only stderr carries run-specific facts like the serving
# version. Stdout must be byte-identical run-to-run AND between the
# single-shot and a 4-window schedule.
cargo run --quiet --release --example serve_explore -- 7 > "$trace_dir/s1.out" 2>/dev/null
cargo run --quiet --release --example serve_explore -- 7 > "$trace_dir/s2.out" 2>/dev/null
cmp "$trace_dir/s1.out" "$trace_dir/s2.out" \
  || { echo "FAIL: serve_explore stdout differs across identical runs"; exit 1; }
cargo run --quiet --release --example serve_explore -- 7 4 > "$trace_dir/s4.out" 2>/dev/null
cmp "$trace_dir/s1.out" "$trace_dir/s4.out" \
  || { echo "FAIL: served answers differ between single-shot and windowed runs"; exit 1; }

echo "==> online cleaning determinism (streaming_clean twice, stdout byte-compare)"
# The example drives 1-day windows and prints the provisional serving
# view after each one plus the canonical view at finalize — all derived
# from committed sketch bytes and engine:clean:* summaries, so two runs
# of the same seed must produce identical stdout (docs/CLEANING.md).
cargo run --quiet --release --example streaming_clean -- 7 > "$trace_dir/c1.out" 2>/dev/null
cargo run --quiet --release --example streaming_clean -- 7 > "$trace_dir/c2.out" 2>/dev/null
cmp "$trace_dir/c1.out" "$trace_dir/c2.out" \
  || { echo "FAIL: streaming_clean stdout differs across identical runs"; exit 1; }

echo "==> budgeted locate determinism (locate_budget twice, stdout byte-compare)"
# The example drives 1-day windows under a tight per-window API budget
# and prints the coverage ramp — spend, carry-over queue, served
# canonical/provisional marker counts per window — all derived from
# committed engine:locate:* / engine:serve:* state and deterministic
# counters, so two runs of the same seed must produce identical stdout
# (docs/AGGREGATION.md).
cargo run --quiet --release --example locate_budget -- 7 > "$trace_dir/l1.out" 2>/dev/null
cargo run --quiet --release --example locate_budget -- 7 > "$trace_dir/l2.out" 2>/dev/null
cmp "$trace_dir/l1.out" "$trace_dir/l2.out" \
  || { echo "FAIL: locate_budget stdout differs across identical runs"; exit 1; }

echo "==> sharded topology (sharded_explore twice under the stock NetFault plan, stdout byte-compare)"
# The example runs 2 engines over the 3-shard store mesh under the
# default NetFault schedule (frame loss/delay, one partition, one
# primary kill), asserts the merged report is byte-identical to a
# fault-free single-process run of the same world, and prints the
# injected-fault and recovery counters — all deterministic for a fixed
# seed, so two runs must produce identical stdout.
cargo run --quiet --release --example sharded_explore -- 4242 > "$trace_dir/n1.out" 2>/dev/null
cargo run --quiet --release --example sharded_explore -- 4242 > "$trace_dir/n2.out" 2>/dev/null
cmp "$trace_dir/n1.out" "$trace_dir/n2.out" \
  || { echo "FAIL: sharded run is not replay-deterministic under faults"; exit 1; }
# And the happy path: a quiet plan must recover nothing (the example
# prints the counters; failovers/timeouts are asserted zero here).
cargo run --quiet --release --example sharded_explore -- 4242 quiet > "$trace_dir/nq.out" 2>/dev/null
grep -q "^net.failovers  *0$" "$trace_dir/nq.out" \
  || { echo "FAIL: quiet sharded run performed a failover"; exit 1; }
grep -q "^net.timeouts  *0$" "$trace_dir/nq.out" \
  || { echo "FAIL: quiet sharded run timed out"; exit 1; }

echo "==> ops console determinism (ops_console twice mid-fault, stdout byte-compare)"
# The console polls a 3-shard mesh through the quiet ops endpoint while
# the stock NetFault plan kills a primary and partitions a link, prints
# one health report per window, the latency-budget table, and the mesh
# trace summary. Quiet polling draws no RNG and charges no simulated
# time, so monitoring must not perturb the run: two runs of the same
# seed must produce identical stdout.
cargo run --quiet --release --example ops_console -- 4242 > "$trace_dir/o1.out" 2>/dev/null
cargo run --quiet --release --example ops_console -- 4242 > "$trace_dir/o2.out" 2>/dev/null
cmp "$trace_dir/o1.out" "$trace_dir/o2.out" \
  || { echo "FAIL: ops_console stdout differs across identical runs"; exit 1; }
# The console must see the injected fault and the recovery.
grep -q "partitioned" "$trace_dir/o1.out" \
  || { echo "FAIL: ops_console never observed the injected partition"; exit 1; }
grep -q "== latency budgets" "$trace_dir/o1.out" \
  || { echo "FAIL: ops_console printed no latency-budget table"; exit 1; }

echo "CI green."
