#!/usr/bin/env bash
# Same-runner A/B of the benchmark: runs `bash benchmark/run.sh` on a base
# revision (A) and on this checkout (B), alternating on one machine, and
# judges the two sets with the benchmark's own -compare. Run it from any
# directory of the checkout:
#
#   bash scripts/bench-ab.sh [BASE]    # or: make bench-ab BASE=...
#
# BASE defaults to the merge base of HEAD and origin/main. The base is
# checked out with `git worktree add` under .bench_build/, so its run
# records carry the base commit; the worktree is removed on exit. Records
# and tables land in .bench_build/ab/.
#
# Seeds 1-3 run every workload on both sides, the base first on odd seeds
# and B first on even ones. Every workload with an `unresolved` or
# `worse beyond bound` row then runs once more on seeds 4-6, alternating the
# same way, and a second -compare over all the runs decides.
#
# Exit status: 0 when no row is worse beyond its bound; 2 when one is
# (-compare's own status); 1 on an incorrect answer or a run error. A change
# to benchmark/ or BENCHMARK.json re-baselines: it is reported and exits 0.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"
if [ $# -gt 1 ]; then
	echo "usage: bash scripts/bench-ab.sh [BASE]" >&2
	exit 1
fi
if ! base="$(git rev-parse --verify --quiet "${1:-$(git merge-base HEAD origin/main)}^{commit}")"; then
	echo "bench-ab: no base revision ${1:-(merge base of HEAD and origin/main)}" >&2
	exit 1
fi

# B runs this working tree, which is HEAD in a clean checkout.
if ! git diff --quiet "$base" -- benchmark BENCHMARK.json; then
	echo "bench-ab: benchmark/ or BENCHMARK.json differs from $base: a benchmark change re-baselines; nothing to compare"
	exit 0
fi

out="$root/.bench_build/ab"
wt="$root/.bench_build/ab-base"
rm -rf "$out"
mkdir -p "$out"
git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git worktree prune
git worktree add --detach "$wt" "$base" >/dev/null
trap 'git -C "$root" worktree remove --force "$wt"' EXIT

echo "bench-ab: A = $base, B = $(git rev-parse HEAD) and this working tree"
start=$SECONDS

# side a|b seed [flags...]: one benchmark run of that side, records appended
# to $out/<side>.jsonl.
side() {
	local s=$1 seed=$2 dir=$root
	shift 2
	[ "$s" = a ] && dir=$wt
	echo "bench-ab: side $s seed $seed $*"
	if ! (cd "$dir" && bash benchmark/run.sh --seed "$seed" --out "$out/$s.jsonl" "$@"); then
		echo "bench-ab: side $s seed $seed $*: run failed (an incorrect answer or a run error)" >&2
		exit 1
	fi
}

# pair seed [flags...]: both sides, the base first on odd seeds.
pair() {
	if [ $(($1 % 2)) -eq 1 ]; then
		side a "$@"
		side b "$@"
	else
		side b "$@"
		side a "$@"
	fi
}

# judge table: -compare over every run so far, its table kept in $out.
judge() {
	local st=0
	bash benchmark/run.sh -compare "$out/a.jsonl" "$out/b.jsonl" >"$out/$1" || st=$?
	cat "$out/$1"
	if [ $st -ne 0 ] && [ $st -ne 2 ]; then
		echo "bench-ab: -compare failed" >&2
		exit 1
	fi
	return $st
}

for seed in 1 2 3; do
	pair $seed
done
st=0
judge compare-1.txt || st=$?

# The workloads to run again, in table order.
rerun=$(awk 'NR > 2 && (/unresolved$/ || /worse beyond bound$/) && !seen[$1]++ { print $1 }' "$out/compare-1.txt")
if [ -n "$rerun" ]; then
	echo "bench-ab: running again on seeds 4-6:" $rerun
	for seed in 4 5 6; do
		for w in $rerun; do
			pair $seed --workload "$w"
		done
	done
	st=0
	judge compare-2.txt || st=$?
fi
echo "bench-ab: $(((SECONDS - start) / 60)) min $(((SECONDS - start) % 60)) s; exit $st"
exit $st
