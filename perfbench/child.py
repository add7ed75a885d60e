"""One workload execution in a fresh interpreter: `ccsplan.cli.main(argv)`.

    python3 perfbench/child.py --root CHECKOUT --result FILE [--trace] [--ref] -- ARGV...

Writes a JSON result to FILE: the call's exit code, wall time, process CPU
time (user + sys, all threads), peak RSS, and with --trace the per-layer
metrics of that call. Only the stdlib is imported before the timed call.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ccsplan
    from ccsplan import cli

    where = os.path.realpath(ccsplan.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"ccsplan imported from {where}, not from {src}")
    return cli


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1


def _reference(tracer) -> dict:
    """HiGHS on every LP the traced run handed to the simplex."""
    import reference

    spans = tracer.spans
    simplex_s = highs_s = 0.0
    rows_max = nnz_max = 0
    for k, lp in tracer.captured_lps:
        ref = reference.highs(lp)
        if ref.status != 0:
            raise RuntimeError(f"reference HiGHS solve failed: {ref.message}")
        simplex_s += spans[k].end - spans[k].start
        highs_s += ref.seconds
        rows_max = max(rows_max, ref.rows)
        nnz_max = max(nnz_max, ref.nnz)
    return {
        "simplex.rows_max": rows_max,
        "simplex.nnz_max": nnz_max,
        "ref.highs.s": highs_s,
        "ref.simplex_over_highs": simplex_s / highs_s if highs_s else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ref", action="store_true", help="with --trace: time HiGHS on the same LPs")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    out = {"rc": None, "error": None}
    try:
        cli = _import_program(args.root)
        tracer = None
        if args.trace:
            import spantrace

            tracer = spantrace.Tracer(capture_lps=args.ref)
            tracer.install()
        c0 = time.process_time()
        w0 = time.perf_counter()
        rc = _call(cli, argv)
        w1 = time.perf_counter()
        c1 = time.process_time()
        out.update(
            rc=rc,
            wall_s=w1 - w0,
            cpu_s=c1 - c0,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = spantrace.metrics(tracer, w1 - w0)
            out["absent"] = tracer.absent
            out["table"] = spantrace.table(tracer)
    except Exception:
        out["error"] = traceback.format_exc()
    if args.ref and "layers" in out:
        try:
            out["layers"].update(_reference(tracer))
        except Exception:
            out["ref_error"] = traceback.format_exc()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
