#!/usr/bin/env bash
# Run the performance-regression benchmark set and compare against the
# promoted baseline.
#
#   scripts/bench.sh                 # run, write benchmarks/latest.txt, compare
#   BENCH_PATTERN='BenchmarkDecode' scripts/bench.sh   # subset
#   BENCH_TIME=5x BENCH_COUNT=3 scripts/bench.sh       # more samples
#   BENCH_MAX_REGRESSION_PCT=10 scripts/bench.sh       # looser gate
#   BENCH_GATE_ALLOCS=0 scripts/bench.sh               # ns/op gate only
#
# Exits non-zero when any benchmark's ns/op — or, for benchmarks reporting
# allocations, allocs/op — regresses more than BENCH_MAX_REGRESSION_PCT
# (default 5) past benchmarks/baseline.txt. Allocation gating can be disabled
# with BENCH_GATE_ALLOCS=0 (e.g. across Go toolchain versions, whose runtime
# allocation behavior may shift). Promote a reviewed latest.txt with
# scripts/bench-update.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkDecodeFull|BenchmarkDecodeMemoized|BenchmarkTraceStream|BenchmarkCoverageSweepSinglePass|BenchmarkSignatureAccumulate|BenchmarkITRCacheAccess|BenchmarkCoverageReplay|BenchmarkPipelineCycle|BenchmarkDetectorOverhead|BenchmarkFigure8Campaign|BenchmarkCampaignArenaReuse|BenchmarkSnapshotCapture|BenchmarkSnapshotRestore|BenchmarkPCFaults|BenchmarkCacheFaults|BenchmarkRenameProtection|BenchmarkCheckpointRecovery|BenchmarkWorkloadSynthesis}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-3}"
MAX="${BENCH_MAX_REGRESSION_PCT:-5}"
GATE_ALLOCS="${BENCH_GATE_ALLOCS:-1}"

mkdir -p benchmarks
go test -run '^$' -bench "$PATTERN" -benchtime "$TIME" -count "$COUNT" . | tee benchmarks/latest.txt

# Machine-readable summary alongside the raw samples: min-of-N ns/op (and
# B/op + allocs/op where reported) per benchmark, for dashboards and the CI
# artifact. Written before the gate so a failing comparison still leaves the
# numbers behind.
awk '
    function name(s) { sub(/-[0-9]+$/, "", s); return s }
    function metric(unit,   i) {
        for (i = 4; i <= NF; i++) if ($i == unit) return $(i - 1) + 0
        return -1
    }
    $1 ~ /^Benchmark/ {
        n = name($1)
        if (!(n in ns)) order[++nn] = n
        v = $3 + 0
        if (!(n in ns) || v < ns[n]) ns[n] = v
        b = metric("B/op");      if (b >= 0 && (!(n in bop) || b < bop[n])) bop[n] = b
        a = metric("allocs/op"); if (a >= 0 && (!(n in aop) || a < aop[n])) aop[n] = a
        # Custom campaign metric: simulated pipeline cycles per injection
        # (decided-outcome engine accounting; lower = more windows skipped).
        c = metric("cycles/injection"); if (c >= 0 && (!(n in cpi) || c < cpi[n])) cpi[n] = c
    }
    END {
        printf "{\n"
        for (i = 1; i <= nn; i++) {
            n = order[i]
            printf "  \"%s\": {\"ns_per_op\": %g", n, ns[n]
            if (n in bop) printf ", \"bytes_per_op\": %d", bop[n]
            if (n in aop) printf ", \"allocs_per_op\": %d", aop[n]
            if (n in cpi) printf ", \"cycles_per_injection\": %g", cpi[n]
            printf "}%s\n", i < nn ? "," : ""
        }
        printf "}\n"
    }
' benchmarks/latest.txt > benchmarks/latest.json
echo "bench.sh: wrote benchmarks/latest.json ($(wc -c < benchmarks/latest.json) bytes)"

if [ ! -f benchmarks/baseline.txt ]; then
    echo "bench.sh: no benchmarks/baseline.txt — skipping comparison (run scripts/bench-update.sh to promote)"
    exit 0
fi

# Compare the best (minimum) ns/op — and allocs/op where reported — per
# benchmark across the -count samples in each file: min-of-N is far less
# noisy than any single sample, which matters for sub-nanosecond loop bodies.
awk -v max="$MAX" -v gateallocs="$GATE_ALLOCS" '
    # Normalize "BenchmarkName-8" to "BenchmarkName" so baselines transfer
    # across machines with different GOMAXPROCS.
    function name(s) { sub(/-[0-9]+$/, "", s); return s }
    # allocs/op of the current line, or -1 when the benchmark does not report
    # allocations.
    function allocs(   i) {
        for (i = 4; i <= NF; i++) if ($i == "allocs/op") return $(i - 1) + 0
        return -1
    }
    FNR == NR {
        if ($1 ~ /^Benchmark/) {
            n = name($1)
            if (!(n in base) || $3 + 0 < base[n]) base[n] = $3 + 0
            a = allocs()
            if (a >= 0 && (!(n in basea) || a < basea[n])) basea[n] = a
        }
        next
    }
    $1 ~ /^Benchmark/ {
        n = name($1)
        if (!(n in cur)) order[++nn] = n
        if (!(n in cur) || $3 + 0 < cur[n]) cur[n] = $3 + 0
        a = allocs()
        if (a >= 0 && (!(n in cura) || a < cura[n])) cura[n] = a
    }
    END {
        for (i = 1; i <= nn; i++) {
            n = order[i]
            if (!(n in base)) continue
            b = base[n]
            pct = b > 0 ? 100 * (cur[n] - b) / b : 0
            printf "%-36s baseline %14.1f ns/op   latest %14.1f ns/op   %+7.2f%%\n", n, b, cur[n], pct
            if (n in basea && n in cura) {
                apct = basea[n] > 0 ? 100 * (cura[n] - basea[n]) / basea[n] : 0
                printf "%-36s baseline %14d allocs  latest %14d allocs  %+7.2f%%\n", "", basea[n], cura[n], apct
                # Allocation counts are deterministic modulo runtime details;
                # gate them with the same threshold unless opted out. Tiny
                # counts (< 100) flip on runtime noise — report only.
                if (gateallocs + 0 == 1 && basea[n] >= 100 && apct > max) {
                    bad = 1
                    printf "REGRESSION: %s allocates %.2f%% more per op (limit %s%%)\n", n, apct, max
                }
            }
            # Loop bodies under ~2ns are below timer resolution; report them
            # but do not gate on their percentage noise.
            if (b < 2) continue
            if (pct > max) { bad = 1; printf "REGRESSION: %s is %.2f%% slower (limit %s%%)\n", n, pct, max }
        }
        exit bad
    }
' benchmarks/baseline.txt benchmarks/latest.txt
