#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline, with no external
# dependencies, before a change lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# The repo must stay fully offline-buildable: every crate in the lockfile
# is a workspace member (or, for the benchmark package, a path dependency),
# never a registry (or git) download.
for lock in Cargo.lock perfbench/Cargo.lock; do
    if grep -Eq 'source = "(registry|git)' "$lock"; then
        echo "ci: $lock contains non-workspace dependencies:" >&2
        grep -B2 'source = ' "$lock" >&2
        exit 1
    fi
done

cargo build --release --workspace
cargo test -q --workspace

# The benchmark (perfbench/, a package of its own over the library crates)
# must build and pass its own tests, so a library API change that breaks it
# fails here rather than when the benchmark runs.
cargo test -q --release --manifest-path perfbench/Cargo.toml

# Property and observability-invariant suites again at a higher case count
# (FGNN_PROP_CASES overrides the in-tree default of 64), and the committed
# golden trace must carry the current export schema version.
FGNN_PROP_CASES=256 cargo test -q --test property_tests --test obs_invariants
grep -q '"schemaVersion":"fgnn-obs-v1"' tests/golden/sync_trainer_2epoch.trace.json

# The committed policy-frontier baseline (scripts/bench_trajectory.sh) must
# carry the current policy export schema, and the policy-equivalence suite
# pins the trait refactor to the pre-trait behavior.
grep -q '"schemaVersion":"fgnn-policy-v1"' BENCH_policy.json
FGNN_PROP_CASES=256 cargo test -q --test policy_equivalence

# Chaos suite at an elevated seed matrix: seeded fault storms, straggler
# hedging and NaN-rollback across trainer families, byte-identical reruns.
FGNN_PROP_CASES=256 cargo test -q --test chaos

# Cluster chaos suite at the elevated case count: random crash/restart/NIC
# schedules must leave the committed training quantities byte-identical to
# the fault-free run (deterministic shard recovery), degraded reads must
# respect the t_stale budget, and the committed cluster baseline must
# carry the cluster export schema.
FGNN_PROP_CASES=256 cargo test -q --test cluster
grep -q '"schemaVersion":"fgnn-cluster-v1"' BENCH_cluster.json

# Work-stealing runtime determinism suite at the elevated case count:
# seeded adversarial schedules (forced steals, delayed pops, stalls) must
# leave every Exact output byte-identical at any worker count, and the
# committed worker-scaling baseline must carry the train export schema.
FGNN_PROP_CASES=256 cargo test -q --test runtime
grep -q '"schemaVersion":"fgnn-train-v1"' BENCH_train.json

# Serving acceptance + property suite at the elevated case count, and a
# live exp_serve export must carry the fgnn-serve-v1 schema tag plus the
# fgnn-serve-trace-v1 request-trace stream (exemplar spans + SLO alerts).
FGNN_PROP_CASES=256 cargo test -q --test serve
serve_out="$(mktemp)"
trace_out="$(mktemp)"
cargo run -q --release -p fgnn-bench --bin exp_serve -- \
    --requests 600 --serve-out "$serve_out" --trace-out "$trace_out" > /dev/null
grep -q '"schemaVersion":"fgnn-serve-v1"' "$serve_out"
grep -q '"kind":"serve"' "$serve_out"
grep -q '"schemaVersion":"fgnn-serve-trace-v1"' "$trace_out"
grep -q '"kind":"alert"' "$trace_out"
rm -f "$serve_out" "$trace_out"

# Performance-trajectory gate: the committed BENCH_serve.json /
# BENCH_policy.json / BENCH_train.json / BENCH_cluster.json baselines
# must reproduce from their recorded seeds (the train baseline
# additionally bit-identically across worker counts, the cluster baseline
# bit-identically between fault-free and crash schedules), and an
# injected 10% regression must trip the gate (nonzero exit).
cargo run -q --release -p fgnn-bench --bin exp_report -- --check > /dev/null
if cargo run -q --release -p fgnn-bench --bin exp_report -- \
    --check --inject-regression 0.10 > /dev/null 2>&1; then
    echo "ci: injected regression did not trip the exp_report gate" >&2
    exit 1
fi

# Resilience transition exports must carry the obs schema tag.
resilience_out="$(mktemp)"
cargo run -q --release -p fgnn-bench --bin exp_resilience -- \
    --resilience --resilience-out "$resilience_out" > /dev/null
grep -q '"schemaVersion":"fgnn-obs-v1"' "$resilience_out"
grep -q '"kind":"resilience"' "$resilience_out"
rm -f "$resilience_out"

cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links must resolve, so deleting or renaming an item cannot
# leave a dangling link in the docs behind.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps

echo "ci: all green"
