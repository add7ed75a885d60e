"""Per-operation correctness and bundle determinism for benchmark executions.

One operation is one scenario solve (run-all) or one sweep point. It fails
if the execution raised or exited with a code other than 0 or 1, if its
output is missing, not optimal or disagrees with the reference, or if its
part of the bundle differs from the first run's at the same program source
and input. Exit code 1 means some scenarios or points failed; the outputs
written by the others are still checked and hashed.

References are read at run time: the golden file for the toy-nation
workloads, and HiGHS on the program's own assembled LP for bau-large.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from facts import tree_digest

ABS_PCT = 1e-6  # reduction_pct, percentage points
REL_OBJ = 1e-9  # objective_yen, against the golden file or HiGHS


class BenchmarkError(RuntimeError):
    """A fault of the benchmark, its checkout or its reference solver; never
    counted as a failed operation of the program."""


def bundle_hashes(out: Path) -> dict:
    """Relative path -> sha256 of every file an execution wrote."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _rel_err(a, b) -> float:
    return abs(a - b) / max(abs(b), 1.0)


def _scenario_error(summary, want_pct, want_obj) -> str | None:
    if summary is None:
        return "no summary.json"
    if summary.get("status") != "optimal":
        return f"status {summary.get('status')!r}"
    if want_pct is not None and abs(summary["reduction_pct"] - want_pct) > ABS_PCT:
        return f"reduction_pct {summary['reduction_pct']!r} != {want_pct!r}"
    if _rel_err(summary["objective_yen"], want_obj) > REL_OBJ:
        return f"objective_yen {summary['objective_yen']!r} != {want_obj!r}"
    return None


class Checker:
    def __init__(self, root: Path, workload: str, dataset: Path, golden: Path, state: Path):
        self.root = Path(root)
        self.workload = workload
        self.dataset = Path(dataset)
        with open(golden) as fh:
            self.golden = json.load(fh)
        key = hashlib.sha256(
            f"{workload}\0{tree_digest(self.root / 'src' / 'ccsplan')}\0{tree_digest(self.dataset)}".encode()
        ).hexdigest()[:32]
        self.record = Path(state) / "determinism" / f"{key}.json"
        self.executions: list = []  # (error or None, outputs read, hashes)
        self.bytes_written: list = []

    def add_execution(self, out: Path, res: dict) -> None:
        if res.get("error") or res.get("rc") not in (0, 1):
            err = res.get("error") or f"exit code {res.get('rc')}"
            self.executions.append((err, None, {}))
            self.bytes_written.append(0)
            return
        if self.workload == "sweep-cp16":
            outputs = _read_json(out / "summary.json")
        else:
            outputs = {sid: _read_json(out / f"s{sid}" / "summary.json") for sid in (1, 2, 3, 4)}
        self.executions.append((None, outputs, bundle_hashes(out)))
        self.bytes_written.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))

    # -- per workload --------------------------------------------------------
    def _runall_lex(self, outputs) -> list:
        gold = self.golden["lex"]
        return [
            _scenario_error(outputs[sid], gold[f"s{sid}"]["reduction_pct"], gold[f"s{sid}"]["objective_yen"])
            for sid in (1, 2, 3, 4)
        ]

    def _sweep(self, summary, n_ops) -> list:
        gold = self.golden["sweep_carbon_price_s1_cost"]
        if summary is None:
            return ["no summary.json"] * n_ops
        points = summary.get("points", [])
        if len(points) != len(gold["grid"]):
            return [f"{len(points)} points, expected {len(gold['grid'])}"] * n_ops
        whole = None
        t, t_gold = summary.get("threshold"), gold["threshold"]
        if (t is None) != (t_gold is None) or (t is not None and abs(t - t_gold) > 1e-6):
            whole = f"threshold {t!r} != {t_gold!r}"
        elif summary.get("monotone") != gold["monotone"]:
            whole = f"monotone {summary.get('monotone')!r} != {gold['monotone']!r}"
        errors = []
        for p, value, pct in zip(points, gold["grid"], gold["reduction_pct"]):
            if whole:
                errors.append(whole)
            elif p.get("error") is not None:
                errors.append(f"point {value:g}: {p['error']}")
            elif abs(p["value"] - value) > 1e-6 or abs(p["reduction_pct"] - pct) > ABS_PCT:
                errors.append(f"point {value:g}: reduction_pct {p['reduction_pct']!r} != {pct!r}")
            else:
                errors.append(None)
        return errors

    def _highs_objectives(self) -> dict:
        """HiGHS optimum of each scenario's cost-mode LP, as assembled by the program."""
        sys.path.insert(0, str(self.root / "src"))
        import ccsplan
        from ccsplan.builder import COST_ONLY

        import reference

        inst = ccsplan.load_validated(self.dataset)
        out = {}
        for sid in (1, 2, 3, 4):
            lp, _ = ccsplan.assemble(inst, ccsplan.scenario_config(sid, objective_mode=COST_ONLY))
            ref = reference.highs(lp)
            if ref.status != 0:
                raise BenchmarkError(f"reference HiGHS failed on scenario {sid}: {ref.message}")
            out[sid] = ref.objective
        return out

    def _bau(self, outputs, ref) -> list:
        return [_scenario_error(outputs[sid], None, ref[sid]) for sid in (1, 2, 3, 4)]

    # -- totals --------------------------------------------------------------
    def finish(self, n_ops: int) -> tuple:
        """(attempted, failed, messages) over all executions so far."""
        ref = None
        if self.workload == "bau-large" and any(e is None for e, _, _ in self.executions):
            ref = self._highs_objectives()
        expected = _read_json(self.record)
        attempted = failed = 0
        messages = []
        for k, (err, outputs, hashes) in enumerate(self.executions):
            attempted += n_ops
            if err is None:
                try:
                    if self.workload == "runall-lex":
                        errors = self._runall_lex(outputs)
                    elif self.workload == "sweep-cp16":
                        errors = self._sweep(outputs, n_ops)
                    else:
                        errors = self._bau(outputs, ref)
                except (KeyError, TypeError) as exc:
                    errors = [f"malformed summary.json: {exc!r}"] * n_ops
                if expected is None and not any(errors):
                    expected = hashes
                    self._write_record(hashes)
                elif expected is not None:
                    diff = sorted(p for p in set(hashes) | set(expected) if hashes.get(p) != expected.get(p))
                    for path in diff:
                        # a run-all scenario owns the files under s{sid}/; anything else is shared
                        top = path.split("/", 1)[0]
                        owners = [int(top[1:]) - 1] if self.workload != "sweep-cp16" and top in (
                            "s1", "s2", "s3", "s4") else range(n_ops)
                        for i in owners:
                            errors[i] = errors[i] or f"bundle differs from the first run's: {path}"
            else:
                errors = [err.strip().splitlines()[-1]] * n_ops
            bad = [e for e in errors if e]
            failed += len(bad)
            if bad:
                messages.append(f"execution {k}: {len(bad)} failed, first: {bad[0]}")
        messages.append(f"{attempted - failed}/{attempted} operations passed "
                        f"({'golden file' if self.workload != 'bau-large' else 'HiGHS reference'}, "
                        f"bundle hashes vs {self.record.name})")
        return attempted, failed, messages

    def _write_record(self, hashes: dict) -> None:
        self.record.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True))
        os.replace(tmp, self.record)
