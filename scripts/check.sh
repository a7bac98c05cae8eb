#!/bin/sh
# Offline CI gate: build, test, and check formatting.
#
# Runs entirely without network access: every external dependency is
# vendored under vendor/ as a path dependency (see Cargo.toml), and
# crates/bench's criterion harnesses are feature-gated.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test --offline -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy, all targets (incl. clippy::perf)"
cargo clippy --workspace --all-targets --offline -- -W clippy::perf -D warnings

echo "==> cargo doc"
cargo doc --no-deps --offline

echo "==> conformance repro triage gate"
# Any .cif under conformance/repros/ is an un-triaged cross-backend
# divergence (see conformance/repros/README.md). Triage it before
# landing: fix the backend and promote the repro to the corpus, or
# fix the comparison policy.
untriaged=$(find conformance/repros -name '*.cif' 2>/dev/null | sort)
if [ -n "$untriaged" ]; then
    echo "un-triaged conformance repros present:" >&2
    echo "$untriaged" >&2
    exit 1
fi

echo "==> conformance smoke (seed 1983, 64 cases) + corpus replay"
target/release/conformance --seed 1983 --cases 64 --quiet
target/release/conformance --corpus --quiet

echo "==> lint snapshot gate over the corpus"
# Every corpus layout's ERC diagnostics are pinned in
# conformance/corpus/lints.txt; regenerate after an intentional rule
# change with ACE_LINT_RECORD=1 cargo test -p ace_lint --test golden.
# In --snapshot mode acelint exits 0 on agreement (even when pinned
# diagnostics include errors) and 1 on any divergence.
target/release/acelint conformance/corpus/*.cif \
    --snapshot conformance/corpus/lints.txt

echo "==> lint SARIF shape"
# The SARIF emitter must produce parseable 2.1.0 output; the full
# structural validation runs in crates/lint/src/sarif.rs tests.
sarif=$(target/release/acelint conformance/corpus/*.cif --format sarif || true)
case "$sarif" in
    '{'*'"version": "2.1.0"'*) ;;
    *) echo "acelint --format sarif produced malformed output" >&2; exit 1 ;;
esac

echo "==> lint agreement fuzz (seed 1983, 64 cases)"
target/release/conformance --seed 1983 --cases 64 --lint-agreement --quiet

echo "==> DRC snapshot gate over the corpus"
# Every corpus layout's design-rule violations are pinned in
# conformance/corpus/drc.txt; regenerate after an intentional deck or
# engine change with ACE_DRC_RECORD=1 cargo test -p ace_drc --test
# golden.
target/release/acedrc conformance/corpus/*.cif \
    --snapshot conformance/corpus/drc.txt

echo "==> DRC SARIF shape"
# acedrc's SARIF must be parseable 2.1.0 with a rules table every
# result's ruleId resolves into; full structural validation runs in
# crates/lint/src/sarif.rs tests.
sarif=$(target/release/acedrc conformance/corpus/*.cif --format sarif || true)
case "$sarif" in
    '{'*'"version": "2.1.0"'*'"rules": ['*) ;;
    *) echo "acedrc --format sarif produced malformed output" >&2; exit 1 ;;
esac

echo "==> DRC deck dimension bound"
# A rule dimension past ace_drc::MAX_DIMENSION would overflow the
# checker's geometry; acedrc must refuse the deck (exit 2) instead.
deck_dir=$(mktemp -d)
printf 'enclose NC NM 4611686018427387904\n' > "$deck_dir/over.drc"
status=0
err=$(target/release/acedrc conformance/corpus/labeled-mesh.cif \
    --deck "$deck_dir/over.drc" 2>&1 >/dev/null) || status=$?
rm -r "$deck_dir"
case "$status:$err" in
    2:*'deck line 1: dimension 4611686018427387904 exceeds the maximum'*) ;;
    *) echo "acedrc accepted an over-bound deck dimension (exit $status): $err" >&2; exit 1 ;;
esac

echo "==> front end survives deep hierarchy"
# A 300,000-level chain of symbols, each calling the next, with a
# labelled box at the bottom. Every walk over the symbol DAG must use
# an explicit stack: a walk recursing once per level aborts acelint
# with a stack overflow (a signal, exit status 128 or above).
chain_dir=$(mktemp -d)
awk 'BEGIN {
    n = 300000;
    printf "DS 1; L ND; B 10 10 0 0; 94 leaf 0 0; DF;\n";
    for (i = 2; i <= n; i++)
        printf "DS %d; C %d; DF;\n", i, i - 1;
    printf "C %d; E\n", n;
}' > "$chain_dir/chain.cif"
status=0
target/release/acelint "$chain_dir/chain.cif" > /dev/null 2>&1 || status=$?
rm -r "$chain_dir"
if [ "$status" -ge 128 ]; then
    echo "acelint aborted on a 300,000-level hierarchy (exit $status)" >&2
    exit 1
fi

echo "==> DRC oracle fuzz (seed 1983, 64 cases)"
# The sweep checker must match the brute-force coordinate-compression
# oracle exactly, and stay invariant under box splitting and feed
# reversal.
target/release/conformance --seed 1983 --cases 64 --drc --quiet

echo "==> incremental conformance smoke (seed 1983, 64 edit cases)"
target/release/conformance --incremental --seed 1983 --cases 64 --quiet

echo "==> parasitic conformance smoke (seed 1983, 64 cases)"
# All six backends must agree on every net's union area/perimeter and
# cut-area totals, and the flat sweep's accumulator is additionally
# checked against the brute-force coordinate-compression oracle.
target/release/conformance --seed 1983 --cases 64 --parasitics --quiet

echo "==> parallel timing smoke"
# Asserts the banded sweep is not slower than flat when the host has
# more than one core (on a 1-core host banding can only measure
# scheduler overhead, so the speedup assertion is skipped). Writes no
# file.
cargo build --release --offline -p ace-bench
target/release/parallel_timing --smoke

echo "==> aced service smoke"
# Starts the daemon on a throwaway socket, runs the load generator's
# smoke mode against it (4 concurrent clients; every wire answer must
# match the in-process extractor), then asserts a clean SIGTERM
# shutdown: exit 0 and the socket file unlinked.
aced_sock=$(mktemp -u /tmp/aced-check-XXXXXX.sock)
target/release/aced --socket "$aced_sock" &
aced_pid=$!
trap 'kill "$aced_pid" 2>/dev/null || true' EXIT
# Wait for the socket to appear (the daemon binds before serving).
for _ in $(seq 1 100); do
    [ -S "$aced_sock" ] && break
    sleep 0.05
done
[ -S "$aced_sock" ] || { echo "aced never bound $aced_sock" >&2; exit 1; }
target/release/service_load --smoke --socket "$aced_sock"
kill -TERM "$aced_pid"
wait "$aced_pid" || { echo "aced did not exit cleanly on SIGTERM" >&2; exit 1; }
trap - EXIT
[ ! -e "$aced_sock" ] || { echo "aced left $aced_sock behind" >&2; exit 1; }

echo "==> aced fault-injection smoke"
# In-process daemons driven through the public wire API: a slow writer
# dribbling a frame byte-by-byte must be served (not dropped), and an
# edit-diff that times out behind a cold sweep must, when retried with
# the same sequence number, apply exactly once (checked against a
# single-apply oracle).
target/release/service_load --faults

echo "==> aced queue-full retry smoke"
# A one-worker daemon with a one-slot queue refuses overflow with
# queue-full + retry_after_ms; aced-client --retries must ride the
# hint to eventual success. Four cold extracts race for one worker.
qf_sock=$(mktemp -u /tmp/aced-check-XXXXXX.sock)
qf_cif=$(mktemp /tmp/aced-check-XXXXXX.cif)
awk 'BEGIN {
    printf "L NM;\n";
    for (i = 0; i < 100; i++)
        for (j = 0; j < 100; j++)
            printf "B 200 200 %d %d;\n", i * 400, j * 400;
    printf "E\n";
}' > "$qf_cif"
target/release/aced --socket "$qf_sock" --workers 1 --queue 1 \
    --timeout-ms 30000 &
qf_pid=$!
trap 'kill "$qf_pid" 2>/dev/null || true; rm -f "$qf_cif"' EXIT
for _ in $(seq 1 100); do
    [ -S "$qf_sock" ] && break
    sleep 0.05
done
[ -S "$qf_sock" ] || { echo "aced never bound $qf_sock" >&2; exit 1; }
for s in q1 q2 q3 q4; do
    target/release/aced-client --socket "$qf_sock" --retries 100 \
        open --session "$s" --cif "$qf_cif" 2>/dev/null
done
qf_pids=""
for s in q1 q2 q3 q4; do
    target/release/aced-client --socket "$qf_sock" --retries 100 \
        extract --session "$s" > /dev/null 2>&1 &
    qf_pids="$qf_pids $!"
done
for pid in $qf_pids; do
    wait "$pid" || { echo "a retried extract never succeeded" >&2; exit 1; }
done
kill -TERM "$qf_pid"
wait "$qf_pid" || { echo "aced did not exit cleanly on SIGTERM" >&2; exit 1; }
trap - EXIT
rm -f "$qf_cif"

echo "OK"
