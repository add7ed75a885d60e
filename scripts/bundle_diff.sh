#!/usr/bin/env bash
# Write the same fifteen CLI output sets from two checkouts and compare them.
#
# Usage: scripts/bundle_diff.sh PARENT_ROOT CHANGE_ROOT OUT
#
# Each checkout runs its own src/ and its own bundled toy-nation dataset with
# one BLAS thread, so that the simplex takes the same pivot path on every run.
# The 40-region dataset comes from each checkout's perfbench/gen_bau.py with
# seed 1. Thirteen sets are result bundles; the other two are `ccsplan validate` on
# each dataset, so that the load and validation path is compared too. The sets
# are written to OUT/parent/<set> and OUT/change/<set>, each with the CLI's
# stdout and exit code (sets left in OUT by an earlier call are removed first),
# then compared with `diff -rq`.
# Exit status: 0 when every file is byte-identical, 1 when some differ.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT_ROOT CHANGE_ROOT OUT" >&2
    exit 2
fi
OUT=$3
rm -rf "$OUT/parent" "$OUT/change" "$OUT/data"

SWEEP_CP16=(sweep --scenario 1 --param carbon-price --from 10000 --to 250000 --steps 16)
SWEEP_GT3=(sweep --scenario 2 --param transport-cost --from 0 --to 60 --steps 3)
FLOOR=--ccs-nonneg-emissions

# run ROOT SIDE SET DATA ARGS...: one CLI call of ROOT's program into OUT/SIDE/SET
run() {
    local root=$1 side=$2 set=$3 data=$4
    shift 4
    local dir="$OUT/$side/$set"
    mkdir -p "$dir"
    local code=0 out=(--out "$dir/bundle")
    if [ "$1" = validate ]; then out=(); fi  # validate writes no bundle
    PYTHONPATH="$root/src" PYTHONDONTWRITEBYTECODE=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        python3 -m ccsplan.cli "$@" --data "$data" "${out[@]}" >"$dir/stdout.txt" || code=$?
    echo "$code" >"$dir/exit_code.txt"
}

side() {
    local root side=$2 toy bau
    root=$(cd "$1" && pwd)
    toy="$root/src/ccsplan/data/toy-nation"
    bau="$OUT/data/$side/bau"
    PYTHONDONTWRITEBYTECODE=1 python3 -c \
        'import sys; sys.path.insert(0, sys.argv[1]); import gen_bau; gen_bau.generate(sys.argv[2], sys.argv[3], 1)' \
        "$root/perfbench" "$toy" "$bau"
    run "$root" "$side" validate-toy "$toy" validate
    run "$root" "$side" validate-bau "$bau" validate
    run "$root" "$side" runall-cost "$toy" run-all --objective cost
    run "$root" "$side" runall-cost-floor "$toy" run-all --objective cost "$FLOOR"
    run "$root" "$side" runall-lex "$toy" run-all --objective max-reduction
    run "$root" "$side" runall-lex-floor "$toy" run-all --objective max-reduction "$FLOOR"
    run "$root" "$side" sweep-cp16 "$toy" "${SWEEP_CP16[@]}"
    run "$root" "$side" sweep-cp16-floor "$toy" "${SWEEP_CP16[@]}" "$FLOOR"
    run "$root" "$side" sweep-cp16-lex "$toy" "${SWEEP_CP16[@]}" --objective max-reduction
    run "$root" "$side" sweep-cp16-lex-floor "$toy" "${SWEEP_CP16[@]}" --objective max-reduction "$FLOOR"
    run "$root" "$side" sweep-gt3 "$toy" "${SWEEP_GT3[@]}"
    run "$root" "$side" sweep-gt3-floor "$toy" "${SWEEP_GT3[@]}" "$FLOOR"
    run "$root" "$side" bau-cost "$bau" run-all --objective cost
    run "$root" "$side" bau-cost-floor "$bau" run-all --objective cost "$FLOOR"
    run "$root" "$side" bau-lex "$bau" run-all --objective max-reduction
}

side "$1" parent
side "$2" change
if diff -rq "$OUT/parent" "$OUT/change"; then
    echo "all bundle sets are byte-identical"
else
    exit 1
fi
