#!/usr/bin/env bash
# Write the same twenty-three CLI output sets from two checkouts and compare them.
#
# Usage: scripts/bundle_diff.sh PARENT_ROOT CHANGE_ROOT OUT
#
# Each checkout runs its own src/ and its own bundled toy-nation dataset with
# one BLAS thread, so that the simplex takes the same pivot path on every run.
# The 40-region dataset comes from each checkout's perfbench/gen_bau.py with
# seed 1. Eighteen sets are result bundles (one `solve`, the others `run-all` and
# `sweep`, among them a carbon-price sweep whose highest prices overflow the
# objective, so that failed points are compared too, a cost-mode `run-all`
# on a copy of toy-nation with every ccs_capacity_tonnes set to 0, whose
# scenarios 2 and 4 are infeasible and print the rows phase 1 left unsatisfied
# on stderr, so that the infeasible path is compared too, and a cost-mode
# `run-all` on a copy with every potential_gw set to 1e300, whose optima
# overflow the objective in every scenario); three are `ccsplan
# validate`, on each dataset and on toy-nation in the ASCII C locale with
# Python's UTF-8 mode off, so that the load and validation path and the
# locale's stdout encoding are compared too; one is `ccsplan report` of the
# `solve` bundle; one is `run-all` into a bundle whose s2/plotdata is a file
# made beforehand, so that the error path of a blocked bundle file is compared
# too. The sets are written to
# OUT/parent/<set> and OUT/change/<set>, each with the CLI's stdout, stderr and
# exit code (sets left in OUT by an earlier call are removed first), then
# compared with `diff -rq`. In stdout and stderr, the side's directory
# (OUT/parent or OUT/change, as given and as an absolute path) is replaced by
# the placeholder <side-dir>, so that a path the CLI prints compares equal.
# When some sets differ, each such set's numeric summary.json fields are
# listed with their largest relative difference over the set's summaries
# (list entries, such as sweep points, count as one field).
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
    python3 - "$OUT/$side" "$dir/stdout.txt" "$dir/stderr.txt" <<'PY'
import os, sys
side, *paths = sys.argv[1:]
forms = sorted({side, os.path.abspath(side), os.path.realpath(side)}, key=len, reverse=True)
for path in paths:
    with open(path, "rb") as fh:
        text = fh.read()
    for form in forms:  # longest first: a relative form is a tail of the absolute one
        text = text.replace(os.fsencode(form), b"<side-dir>")
    with open(path, "wb") as fh:
        fh.write(text)
PY
}

# summary_diffs OUT: the largest relative difference of each numeric
# summary.json field, per set whose files differ
summary_diffs() {
    python3 - "$1" <<'PY'
import json, sys
from pathlib import Path

out = Path(sys.argv[1])


def files(d):
    return {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}


def fields(node, key="", field=""):
    """(key with list positions, key without them, value) of each number."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from fields(v, f"{key}.{k}" if key else k, f"{field}.{k}" if field else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from fields(v, f"{key}[{i}]", f"{field}[]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield key, field, float(node)


def rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


for parent in sorted(p for p in (out / "parent").iterdir() if p.is_dir()):
    change = out / "change" / parent.name
    if files(parent) == files(change):
        continue
    worst = {}
    for path in sorted(parent.rglob("summary.json")):
        twin = change / path.relative_to(parent)
        if not twin.is_file():
            continue
        theirs = {key: v for key, _, v in fields(json.loads(twin.read_text(encoding="utf-8")))}
        for key, field, v in fields(json.loads(path.read_text(encoding="utf-8"))):
            if key in theirs:
                worst[field] = max(worst.get(field, 0.0), rel(v, theirs[key]))
    print(f"{parent.name}: " + ("largest relative difference per summary.json field" if worst else "no summary.json to compare"))
    for field, d in sorted(worst.items()):
        print(f"  {field:32s} {d:.3g}")
PY
}

side() {
    local root side=$2 toy bau nostorage overflow
    root=$(cd "$1" && pwd)
    toy="$root/src/ccsplan/data/toy-nation"
    bau="$OUT/data/$side/bau"
    nostorage="$OUT/data/$side/nostorage"
    overflow="$OUT/data/$side/overflow"
    PYTHONDONTWRITEBYTECODE=1 python3 -c \
        'import sys; sys.path.insert(0, sys.argv[1]); import gen_bau; gen_bau.generate(sys.argv[2], sys.argv[3], 1)' \
        "$root/perfbench" "$toy" "$bau"
    cp -R "$toy" "$nostorage"
    cp -R "$toy" "$overflow"
    python3 - "$nostorage/regions.csv" ccs_capacity_tonnes 0 "$overflow/tech.csv" potential_gw 1e300 <<'PY'
import csv, sys
args = sys.argv[1:]
for path, column, value in zip(args[::3], args[1::3], args[2::3]):  # set the column to the value in every row
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, column: value} for row in rows)
PY
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
    run "$root" "$side" runall-nostorage run-all --data "$nostorage" --objective cost
    run "$root" "$side" runall-overflow run-all --data "$overflow" --objective cost
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
    run "$root" "$side" bau-lex-floor run-all --data "$bau" --objective max-reduction "$FLOOR"
}

side "$1" parent
side "$2" change
if diff -rq "$OUT/parent" "$OUT/change"; then
    echo "all bundle sets are byte-identical"
else
    summary_diffs "$OUT"
    exit 1
fi
