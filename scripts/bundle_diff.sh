#!/usr/bin/env bash
# Write the same twenty CLI output sets from two checkouts and compare them.
#
# Usage: scripts/bundle_diff.sh PARENT_ROOT CHANGE_ROOT OUT
#
# Each checkout runs its own src/ and its own bundled toy-nation dataset with
# one BLAS thread, so that the simplex takes the same pivot path on every run.
# The 40-region dataset comes from each checkout's perfbench/gen_bau.py with
# seed 1. Fifteen sets are result bundles (one `solve`, the others `run-all` and
# `sweep`, among them a carbon-price sweep whose highest prices overflow the
# objective, so that failed points are compared too); three are `ccsplan
# validate`, on each dataset and on toy-nation in the ASCII C locale with
# Python's UTF-8 mode off, so that the load and validation path and the
# locale's stdout encoding are compared too; one is `ccsplan report` of the
# `solve` bundle; one is `run-all` into a bundle whose s2/plotdata is a file
# made beforehand, so that the error path of a blocked bundle file is compared
# too. The sets are written to
# OUT/parent/<set> and OUT/change/<set>, each with the CLI's stdout, stderr and
# exit code (sets left in OUT by an earlier call are removed first), then
# compared with `diff -rq`.
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
SWEEP_CP_OVERFLOW=(sweep --scenario 1 --param carbon-price --from 10000 --to 1e308 --steps 4)
FLOOR=--ccs-nonneg-emissions

# run ROOT SIDE SET ARGS...: one CLI call of ROOT's program into OUT/SIDE/SET; a
# solving command writes its bundle to OUT/SIDE/SET/bundle
run() {
    local root=$1 side=$2 set=$3
    shift 3
    local dir="$OUT/$side/$set"
    mkdir -p "$dir"
    local code=0 out=()
    case $1 in solve | run-all | sweep) out=(--out "$dir/bundle") ;; esac
    PYTHONPATH="$root/src" PYTHONDONTWRITEBYTECODE=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        python3 -m ccsplan.cli "$@" "${out[@]}" >"$dir/stdout.txt" 2>"$dir/stderr.txt" || code=$?
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
    run "$root" "$side" validate-toy validate --data "$toy"
    run "$root" "$side" validate-bau validate --data "$bau"
    LC_ALL=C LANG=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 PYTHONIOENCODING= \
        run "$root" "$side" validate-toy-ascii validate --data "$toy"
    run "$root" "$side" solve-s4-cost-floor solve --data "$toy" --scenario 4 --objective cost "$FLOOR"
    run "$root" "$side" report-s4-cost-floor report --results "$OUT/$side/solve-s4-cost-floor/bundle"
    run "$root" "$side" runall-cost run-all --data "$toy" --objective cost
    run "$root" "$side" runall-cost-floor run-all --data "$toy" --objective cost "$FLOOR"
    run "$root" "$side" runall-lex run-all --data "$toy" --objective max-reduction
    run "$root" "$side" runall-lex-floor run-all --data "$toy" --objective max-reduction "$FLOOR"
    mkdir -p "$OUT/$side/runall-blocked-file/bundle/s2"
    touch "$OUT/$side/runall-blocked-file/bundle/s2/plotdata"
    run "$root" "$side" runall-blocked-file run-all --data "$toy" --objective cost
    run "$root" "$side" sweep-cp16 "${SWEEP_CP16[@]}" --data "$toy"
    run "$root" "$side" sweep-cp16-floor "${SWEEP_CP16[@]}" --data "$toy" "$FLOOR"
    run "$root" "$side" sweep-cp16-lex "${SWEEP_CP16[@]}" --data "$toy" --objective max-reduction
    run "$root" "$side" sweep-cp16-lex-floor "${SWEEP_CP16[@]}" --data "$toy" --objective max-reduction "$FLOOR"
    run "$root" "$side" sweep-gt3 "${SWEEP_GT3[@]}" --data "$toy"
    run "$root" "$side" sweep-gt3-floor "${SWEEP_GT3[@]}" --data "$toy" "$FLOOR"
    run "$root" "$side" sweep-cp-overflow "${SWEEP_CP_OVERFLOW[@]}" --data "$toy"
    run "$root" "$side" bau-cost run-all --data "$bau" --objective cost
    run "$root" "$side" bau-cost-floor run-all --data "$bau" --objective cost "$FLOOR"
    run "$root" "$side" bau-lex run-all --data "$bau" --objective max-reduction
}

side "$1" parent
side "$2" change
if diff -rq "$OUT/parent" "$OUT/change"; then
    echo "all bundle sets are byte-identical"
else
    exit 1
fi
