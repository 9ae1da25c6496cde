#!/usr/bin/env bash
# Reachability audit: which non-test functions does no command reach?
#
# Builds the itr CLI and every example with coverage instrumentation over
# the whole module, then runs every benchmarks/e2e spec, both
# examples/specs, each example, and a walk over the commands' flags at small
# scale. The functions no run entered are printed and compared with
# scripts/reach.expected, where each carries one reason word:
#
#   oracle       a reference model that tests check the fast path against
#   flag         reached by a flag or input the walk does not drive
#   test-helper  kept for tests, fuzz targets or benchmarks
#
# A function that newly goes unreached must be deleted or listed with its
# reason; a listed function that a run now reaches must leave the list.
# Exits 1 when the lists differ. About a minute on two cores:
#
#   bash scripts/reach.sh
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
expected="$root/scripts/reach.expected"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/cov" "$work/run"

cd "$root"
go build -cover -coverpkg=./... -o "$work/bin/itr" ./cmd/itr
for dir in examples/*/; do
	name=$(basename "$dir")
	[ -f "$dir/main.go" ] && go build -cover -coverpkg=./... -o "$work/bin/$name" "./$dir"
done

export GOCOVERDIR="$work/cov"
cd "$work/run"
itr() { "$work/bin/itr" "$@" -manifest none >/dev/null; }

# Inputs for the flags that read a file.
cat >profile.json <<'EOF'
{"name": "reach", "staticTraces": 400, "seed": 7,
 "components": [{"traces": 30, "iters": 50}, {"traces": 200, "iters": 2}]}
EOF
cat >frag.s <<'EOF'
        lui  r4, 16
        ori  r4, r4, 0
        addi r1, r0, 5
top:    lb   r5, 1(r4)
        lwl  r6, 4(r4)
        sb   r5, 2(r4)
        sra  r7, r5, 4
        slt  r8, r7, r5
        div  r9, r8, r7
        jal  r31, sub
        addi r1, r1, -1
        bgeu r1, r0, top
        halt
sub:    fcvt f1, r1
        fneg f2, f1
        fadd f3, f2, f1
        jr   r31
EOF

for spec in "$root"/benchmarks/e2e/specs/*/*.json "$root"/examples/specs/*.json; do
	itr run -spec "$spec"
done
for dir in "$root"/examples/*/; do
	name=$(basename "$dir")
	[ -x "$work/bin/$name" ] && "$work/bin/$name" >/dev/null
done

itr char -table1 -budget 200000
itr char -fig 2 -budget 200000
itr coverage -headline -budget 200000
itr coverage -ablation -budget 200000
itr coverage -metric recovery -warmup 100000 -budget 200000
itr energy -perf -perf-cycles 5000 -budget 200000
itr energy -baselines -budget 200000
for det in itr reptfd dme; do
	itr fault -bench art -faults 4 -window 20000 -detector "$det" -verify -fields -latency-hist
	itr sim -bench bzip -cycles 20000 -detector "$det" -inject 500
done
itr fault -bench vortex -faults 2 -window 20000 -pc 3 -cache 3 -rename 3
# PC faults that settle past their first probe: three are caught by the
# sequential-PC check once the flipped fetch's decode horizon is known, and
# one is masked, which reads the study's fault-free reference run.
itr fault -bench mgrid -faults 1 -window 20000 -pc 4
itr fault -bench art -faults 4 -window 20000 -checkpoint -exact
itr fault -bench art -faults 4 -window 20000 -snapshot-interval -1
itr fault -bench art -faults 4 -window 20000 -trace-out trace.json -progress 2>/dev/null
itr shootout -bench art -faults 3 -window 20000 -budget 100000 -sweep-chunks -verify
itr sim -bench bzip -cycles 20000 -no-itr -print-signals
itr sim -profile profile.json -cycles 20000
itr sim -asm frag.s -cycles 20000
itr dump -bench bzip -dis -n 8
itr dump -bench bzip -traces -budget 100000

# Never-run functions as "file function", one per line, line numbers dropped
# so edits elsewhere in a file do not churn the list.
go tool covdata func -i "$GOCOVERDIR" |
	awk -F'\t+' '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	sort >unreached.txt

grep -v '^#' "$expected" >listed.txt
if bad=$(awk 'NF != 3 || $3 !~ /^(oracle|flag|test-helper)$/' listed.txt) && [ -n "$bad" ]; then
	echo "reach.expected: each line needs a file, a function and one reason word:" >&2
	echo "$bad" >&2
	exit 1
fi
awk '{ print $1, $2 }' listed.txt | sort >expected.txt
echo "$(wc -l <unreached.txt) functions never run:"
awk 'FILENAME == ARGV[1] { why[$1 " " $2] = $3; next }
	{ k = $1 " " $2; printf "  %-50s %-26s %s\n", $1, $2, (k in why ? why[k] : "(unlisted)") }' \
	listed.txt unreached.txt
if ! diff -u expected.txt unreached.txt >diff.txt; then
	echo "Unreached functions differ from scripts/reach.expected (- listed, + unreached now):" >&2
	tail -n +3 diff.txt | grep '^[-+]' >&2
	exit 1
fi
