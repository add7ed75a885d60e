"""ccsplan benchmark: three user workloads, timed end to end or traced by layer.

    python3 perfbench/run.py --workload runall-lex --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Each execution is a fresh interpreter calling
`ccsplan.cli.main(argv)` (see child.py), at default settings: no --jobs and,
on the run-all workloads, no pinned BLAS threads. The sweep's thread pool
already starts one thread per CPU, so its executions pin OpenBLAS to one
thread: an execution never runs more compute threads than CPUs. Executions
repeat, one after another, while the next still fits in --seconds (at least
one runs).

--trace 0 reports the end-to-end metrics (medians over executions):
wall_s, cpu_s, peak_rss_mib, and setup_s (median of fresh-interpreter
`import ccsplan` + `load_validated(dataset)` probes, one before each timed
execution, so that they sample the whole run and not only its first seconds).
--trace 1 reports the per-layer metrics of traced executions (spantrace.py).

Every execution's outputs are checked (checks.py) and hashed; the hashes must
match across executions and across runs at the same program source, which
are remembered under .perfbench/ in the checkout. The last stdout line is
the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import facts
import gen_bau
from checks import BenchmarkError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOY = ROOT / "src" / "ccsplan" / "data" / "toy-nation"
GOLDEN = ROOT / "tests" / "golden" / "toy_nation.json"
STATE = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0  # a run ends well within 180 s
SETUP_PROBES = 5  # at least; after one discarded warm-up probe
SWEEP_ARGS = ["--scenario", "1", "--param", "carbon-price", "--from", "10000", "--to", "250000", "--steps", "16"]

# One BLAS thread per sweep worker: the pool's threads already fill every CPU.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# name -> (argv before --data/--out, number of operations, dataset kind, environment)
WORKLOADS = {
    "runall-lex": (["run-all"], 4, "toy", {}),
    "sweep-cp16": (["sweep", *SWEEP_ARGS], 16, "toy", ONE_BLAS_THREAD),
    "bau-large": (["run-all", "--objective", "cost"], 4, "bau", {}),
}

POST_SOLVE = ("builder.", "lp.", "analytics", "dataio.write_results")


def log(msg: str) -> None:
    print(msg, flush=True)


def require_checkout() -> None:
    for path in (ROOT / "src" / "ccsplan" / "__init__.py", TOY / "globals.json", GOLDEN):
        if not path.is_file():
            raise BenchmarkError(f"not a ccsplan checkout: missing {path.relative_to(ROOT)}")


def metric_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def predictions() -> list:
    """The README's layer metric -> end-to-end metric -> workload table, as lines."""
    lines = (HERE / "README.md").read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| layer metric |"))
    return list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))


def setup_probe(dataset: Path, deadline: float) -> float:
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(ROOT / 'src')!r}); import ccsplan; "
        f"ccsplan.load_validated({str(dataset)!r}); print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def execute(argv: list, env: dict, result: Path, deadline: float, trace: bool, ref: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--ref"] * ref + ["--", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env={**os.environ, **env},
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "execution timed out"}
    if proc.returncode != 0 or not result.is_file():
        return {"rc": None, "error": f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}"}
    with open(result) as fh:
        return json.load(fh)


def median_metrics(samples: list, units: dict, median=statistics.median) -> dict:
    out = {}
    for name, unit in units.items():
        values = [s[name] for s in samples if name in s]
        out[name] = {"value": median(values) if values else 0.0, "unit": unit}
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    require_checkout()
    head, n_ops, kind, env = WORKLOADS[workload]
    work = STATE / "runs" / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        if kind == "bau":
            dataset = gen_bau.generate(TOY, work / "dataset", seed)
        else:
            dataset = TOY
        log("facts: " + json.dumps(facts.machine_facts(ROOT, workload, seed, dataset, env)))
        checker = checks.Checker(ROOT, workload, dataset, GOLDEN, STATE)

        samples = []
        probes = []
        if not trace:
            setup_probe(dataset, deadline)  # warm-up

        t_measure = time.monotonic()
        last = 0.0
        while not samples or (
            time.monotonic() - t_measure + last <= seconds and time.monotonic() + last < deadline
        ):
            k = len(samples)
            t0 = time.monotonic()
            if not trace:
                probes.append(setup_probe(dataset, deadline))
            out = work / f"exec{k}"
            res = execute([*head, "--data", str(dataset), "--out", str(out)], env,
                          work / f"exec{k}.json", deadline, trace, ref=trace and k == 0)
            last = time.monotonic() - t0
            if res.get("ref_error"):
                raise BenchmarkError(f"reference HiGHS run failed:\n{res['ref_error']}")
            checker.add_execution(out, res)
            samples.append(res)
            if res.get("error"):
                log(f"exec {k}: error\n{res['error']}")
            else:
                log(f"exec {k}: rc {res['rc']} wall {res['wall_s']:.4f} s cpu {res['cpu_s']:.4f} s "
                    f"rss {res['peak_rss_mib']:.2f} MiB")
            if res.get("table") and k == 0:
                log("  layer                      calls    incl_s    self_s  share")
                for name, calls, incl, self_s, share in res["table"]:
                    log(f"  {name:<26}{calls:>6}{incl:>10.4f}{self_s:>10.4f}{share:>7.1%}")
                simplex = sum(r[4] for r in res["table"] if r[0] == "simplex.solve")
                post = sum(r[4] for r in res["table"] if r[0].startswith(POST_SOLVE))
                log(f"  split: simplex.solve {simplex:.1%}, builder+lp+analytics+write {post:.1%}")
            if res.get("absent"):
                log(f"  absent layers: {', '.join(res['absent'])}")

        if not trace:
            while len(probes) < SETUP_PROBES:
                probes.append(setup_probe(dataset, deadline))
            log(f"setup_s probes: {' '.join(f'{p:.4f}' for p in probes)}")

        attempted, failed, messages = checker.finish(n_ops)
        for m in messages:
            log(f"check: {m}")
        ok = [s for s in samples if not s.get("error")]
        if trace:
            layer_samples = []
            for s, nbytes in zip(samples, checker.bytes_written):
                if "layers" in s:
                    layer_samples.append({**s["layers"], "dataio.bytes_written": nbytes})
            # median_low keeps counts whole: it is always one of the samples
            metrics = median_metrics(layer_samples, metric_units("per_layer"), statistics.median_low)
        else:
            metrics = median_metrics(ok, metric_units("end_to_end"))
            metrics["setup_s"]["value"] = statistics.median(probes)
        for name, m in metrics.items():
            log(f"metric {name} = {m['value']!r} {m['unit']}")
        if trace:
            for line in predictions():
                log(f"predict: {line}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ccsplan benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
