#!/bin/sh
# Tier-1 verification: gofmt, vet, build, run the full test suite, and re-run the
# concurrency-sensitive packages under the race detector. The experiment
# reproduction tests are minutes-long already and ~10x slower under -race
# (they exceed go test's per-package timeout on small machines), so the
# race pass targets the packages with concurrent hot paths.
#
#   ./scripts/check.sh          # gofmt + vet + build + tests + targeted race pass
#   ./scripts/check.sh -lint    # additionally run pqolint + extra analyzers
#   ./scripts/check.sh -bench   # additionally run the benchmark gates
#   ./scripts/check.sh -chaos   # additionally run the full chaos profiles
#
# The short chaos profile (fault-injected serving, docs/ROBUSTNESS.md) is
# part of the default test suite; -chaos runs the long streams.
set -eu
cd "$(dirname "$0")/.."

# Formatting gate: every Go file outside vendor/ and the dot-directories
# (.git, the benchmark's build cache) must be gofmt-clean.
unformatted=$(find . \( -path ./vendor -o -path './.*' \) -prune -o \
    -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check.sh: not gofmt-clean (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go build ./...
# -shuffle=on randomizes test (and subtest) execution order, so hidden
# inter-test state dependencies fail loudly instead of by luck of the
# default order.
go test -shuffle=on ./...
# perfbench/ is its own module, so `./...` above never builds it; run its
# tests here so an engine or core API change it consumes fails tier 1
# instead of surfacing only when the benchmark runs. GOPROXY=off: its only
# dependency is this module, through a replace directive.
(cd perfbench && GOPROXY=off go test ./...)
# ab.py's verdict and pairing rules, on canned results.
python3 -m unittest scripts/ab_test.py
go test -race ./internal/core/ ./internal/server/ ./internal/engine/ \
    ./internal/baselines/ ./internal/harness/ ./internal/memo/ \
    ./internal/faultinject/ ./internal/cluster/ ./internal/par/ \
    ./internal/datagen/ ./internal/stats/ ./internal/workload/ \
    ./internal/stripe/

run_lint() {
    # pqolint: the repo's invariant analyzers (docs/LINT.md). Driven through
    # `go vet -vettool` so package loading and result caching come from the
    # go command.
    bin=$(mktemp -d)/pqolint
    go build -o "$bin" ./cmd/pqolint
    go vet -vettool="$bin" ./...
    # Audit the //lint:allow inventory: an allow naming an unknown analyzer
    # (typo or stale after a rename) or missing its reason fails here.
    "$bin" -allows >/dev/null
    rm -f "$bin"
    echo "check.sh: pqolint clean"

    # Extra analyzers, best-effort: these tools are not vendored, so they
    # run only where the host has them installed (e.g. CI).
    if command -v govulncheck >/dev/null 2>&1; then
        govulncheck ./... || exit 1
    else
        echo "check.sh: govulncheck not installed; skipping"
    fi
    if command -v shadow >/dev/null 2>&1; then
        go vet -vettool="$(command -v shadow)" ./... || exit 1
    else
        echo "check.sh: shadow not installed; skipping"
    fi
}

case "${1:-}" in
-lint)
    run_lint
    ;;
-bench)
    # Fast smoke over the memo hot path first: a regression in Optimize/
    # Recost cost or allocations shows up here in seconds (docs/PERF.md).
    go test ./internal/memo/ -run '^$' -benchtime 100x -benchmem \
        -bench 'BenchmarkOptimize$|BenchmarkRecost$'
    go test ./internal/server/ -run '^$' -bench BenchmarkServerParallel -cpu 8
    hi=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    [ "$hi" -lt 8 ] && hi=8
    # Gates against the base commit (docs/PERF.md): each fails when the
    # change's median ns/op is above 1.25x the base's. -skip drops the
    # sub-benchmarks older bases still have, so each regex matches one
    # benchmark a side.
    python3 scripts/ab.py go ./internal/core/ '^BenchmarkProcessParallel$' \
        -cpu 8 -benchtime 2000x -skip 'BenchmarkProcessParallel/(rwmutex|mutex)'
    python3 scripts/ab.py go ./internal/core/ '^BenchmarkProcessWriteHeavy$' \
        -cpu "$hi" -benchtime 1000x -skip 'BenchmarkProcessWriteHeavy/unsharded'
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    # Scaling smoke: the lock-free read path must still deliver >= 1.25x
    # single-proc throughput at max(8, NumCPU) procs; a lock reintroduced
    # on the hit path flattens the curve. No physical cores needed: added
    # procs overlap the simulated optimizer sleeps.
    go test ./internal/core/ -run '^$' -bench '^BenchmarkProcessParallel$' \
        -cpu "1,$hi" -benchtime 1000x -count 2 | tee "$out"
    awk -v hi="$hi" '
    $1 ~ /^BenchmarkProcessParallel(-[0-9]+)?$/ && $4 == "ns/op" {
        # go test omits the -N GOMAXPROCS suffix when N == 1.
        n = $1
        if (sub(/^.*-/, "", n) == 0) n = "1"
        if (!(n in ns) || $3 + 0 < ns[n]) ns[n] = $3 + 0
    }
    END {
        if (!("1" in ns) || !(hi in ns)) { print "check.sh: missing scaling samples"; exit 1 }
        ratio = ns["1"] / ns[hi]
        printf "check.sh: ProcessParallel %d ns/op @1 proc, %d ns/op @%d procs (%.2fx throughput)\n", ns["1"], ns[hi], hi, ratio
        if (ratio < 1.25) { printf "check.sh: FAIL: read path stopped scaling (< 1.25x at %d procs)\n", hi; exit 1 }
    }' "$out"
    # Revalidation tail: Process p99 during background epoch revalidation
    # must stay within 2x of steady state (docs/STATS.md).
    go test ./internal/core/ -run '^$' -bench BenchmarkProcessDuringRevalidation \
        -cpu 8 -benchtime 0.5s | tee "$out"
    awk '
    $1 ~ /^BenchmarkProcessDuringRevalidation\/steady/ {
        for (i = 2; i <= NF; i++) if ($i == "p99-ns") steady = $(i-1) + 0
    }
    $1 ~ /^BenchmarkProcessDuringRevalidation\/revalidating/ {
        for (i = 2; i <= NF; i++) if ($i == "p99-ns") reval = $(i-1) + 0
    }
    END {
        if (steady == 0 || reval == 0) { print "check.sh: missing p99-ns samples"; exit 1 }
        printf "check.sh: Process p99 %d ns steady, %d ns during revalidation (limit %.0f)\n", steady, reval, 2 * steady
        if (reval > 2 * steady) { print "check.sh: FAIL: revalidation pushes Process p99 beyond 2x steady state"; exit 1 }
    }' "$out"
    ;;
-chaos)
    # Full chaos streams: long fault-injected request replays under the
    # race detector (the short profile already runs in the default suite).
    # TestChaos matches both the single-node serving chaos and the
    # network-fault cluster profile (TestChaosCluster): a three-node
    # in-process cluster driven through epoch advances under dropped,
    # delayed, duplicated, and partitioned coordinator RPCs.
    go test -race ./internal/server/ -run 'TestChaos' -chaos.full \
        -count=1 -timeout 600s -v
    ;;
esac

echo "check.sh: all green"
