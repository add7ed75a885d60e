"""Self-tests of the benchmark's own code: span arithmetic, the wrapper
installation, the HiGHS reference, the correctness and determinism checks,
and the bau-large generator.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import facts  # noqa: E402
import gen_bau  # noqa: E402
import reference  # noqa: E402
import spantrace  # noqa: E402
from spantrace import Span  # noqa: E402

MAIN, W1, W2 = 1, 2, 3
TOY = ROOT / "src" / "ccsplan" / "data" / "toy-nation"
GOLDEN = ROOT / "tests" / "golden" / "toy_nation.json"


class SpanArithmetic(unittest.TestCase):
    def test_union_length(self):
        u = spantrace.union_length
        self.assertEqual(u([], 0, 10), 0.0)
        self.assertEqual(u([(1, 3), (2, 5), (7, 8)], 0, 10), 5.0)
        self.assertEqual(u([(-5, 2), (9, 20)], 0, 10), 3.0)  # clipped to [0, 10]
        self.assertEqual(u([(1, 9), (2, 3), (4, 5)], 0, 10), 8.0)  # contained

    def test_nested_single_thread(self):
        spans = [
            Span("cli", MAIN, 0, 10),
            Span("a", MAIN, 1, 4, parent=0),
            Span("b", MAIN, 5, 9, parent=0),
            Span("a", MAIN, 6, 7, parent=2),
        ]
        self.assertEqual(spantrace.self_times(spans), [3, 3, 3, 1])
        st = spantrace.layer_stats(spans)
        self.assertEqual((st["a"].calls, st["a"].incl_s, st["a"].self_s), (2, 4, 4))
        self.assertEqual(spantrace.unattributed(spans, 10, MAIN), 0)

    def test_recursion_not_counted_twice(self):
        spans = [Span("x", MAIN, 0, 10), Span("x", MAIN, 2, 6, parent=0)]
        st = spantrace.layer_stats(spans)["x"]
        self.assertEqual((st.incl_s, st.self_s), (10, 10))

    def test_overlapping_worker_threads(self):
        spans = [
            Span("cli", MAIN, 0, 10),
            Span("engine.sweep", MAIN, 0.5, 10, parent=0),
            Span("engine.run_scenario", W1, 1, 6, parent=1),
            Span("engine.run_scenario", W2, 2, 8, parent=1),
            Span("engine.run_scenario", W1, 6, 9, parent=1),
            Span("simplex.solve", W2, 3, 7, parent=3),
        ]
        selfs = spantrace.self_times(spans)
        self.assertAlmostEqual(selfs[1], 9.5 - 8)  # sweep minus the union [1, 9]
        self.assertAlmostEqual(selfs[3], 6 - 4)
        self.assertAlmostEqual(spantrace.queue_wait(spans), 0.5 + 1.5 + 5.5)
        self.assertAlmostEqual(spantrace.unattributed(spans, 10, MAIN), 0)

    def test_broken_parentage_shows_as_unattributed(self):
        spans = [
            Span("cli", MAIN, 0, 10),
            Span("engine.sweep", MAIN, 0, 10, parent=0),
            Span("engine.run_scenario", W1, 1, 9),  # lost its parent
        ]
        self.assertAlmostEqual(spantrace.unattributed(spans, 10, MAIN), -8)


class LiveTracer(unittest.TestCase):
    def test_threads_link_to_main_span(self):
        t = spantrace.Tracer()
        leaf = t.wrap("leaf", lambda: time.sleep(0.02))
        point = t.wrap("engine.run_scenario", lambda _: leaf())

        def sweep():
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(point, range(4)))

        root = t.wrap("cli", t.wrap("engine.sweep", sweep))
        t0 = time.perf_counter()
        root()
        wall = time.perf_counter() - t0
        by_layer = {}
        for sp in t.spans:
            by_layer.setdefault(sp.layer, []).append(sp)
        main = threading.main_thread().ident
        self.assertEqual([sp.thread for sp in by_layer["cli"] + by_layer["engine.sweep"]], [main, main])
        sweep_k = t.spans.index(by_layer["engine.sweep"][0])
        for sp in by_layer["engine.run_scenario"]:
            self.assertNotEqual(sp.thread, main)
            self.assertEqual(sp.parent, sweep_k)
        for sp in by_layer["leaf"]:
            self.assertEqual(t.spans[sp.parent].layer, "engine.run_scenario")
            self.assertEqual(t.spans[sp.parent].thread, sp.thread)
        self.assertLess(abs(spantrace.unattributed(t.spans, wall, main)), 0.01)

    def test_install_reports_absent_symbol_and_restores(self):
        import ccsplan.cli
        import ccsplan.engine

        orig_extract, orig_main = ccsplan.engine.extract_plan, ccsplan.cli.main
        del ccsplan.engine.extract_plan
        try:
            t = spantrace.Tracer()
            t.install()
            self.assertEqual(t.absent, ["ccsplan.engine.extract_plan"])
            self.assertIsNot(ccsplan.cli.main, orig_main)
            t.uninstall()
            self.assertIs(ccsplan.cli.main, orig_main)
        finally:
            ccsplan.engine.extract_plan = orig_extract

    def test_traced_solve_counts(self):
        import ccsplan
        import ccsplan.engine
        from ccsplan.builder import COST_ONLY

        inst = ccsplan.load_validated(TOY)
        t = spantrace.Tracer(capture_lps=True)
        t.install()
        try:
            res = ccsplan.engine.run_scenario(inst, ccsplan.scenario_config(3, objective_mode=COST_ONLY))
        finally:
            t.uninstall()
        m = spantrace.metrics(t, 1.0)
        self.assertEqual(m["simplex.solve.calls"], 1)
        self.assertEqual(m["simplex.iters"], res.solve_stats["iterations"])
        self.assertEqual(m["builder.assemble.calls"], 1)
        self.assertEqual(m["trace.absent_layers"], 0)
        self.assertEqual(len(t.captured_lps), 1)

        ref = child._reference(t)
        self.assertGreater(ref["simplex.rows_max"], 0)
        self.assertGreater(ref["ref.highs.s"], 0)
        # every declared per-layer metric comes from spantrace, the reference
        # solve in child.py, or run.py (bytes written)
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = {d["name"] for d in json.load(fh)["per_layer"]}
        self.assertEqual(set(m) | set(ref) | {"dataio.bytes_written"}, declared)
        self.assertFalse(set(m) & set(ref))


class Reference(unittest.TestCase):
    def test_highs_matches_program_solve(self):
        from ccsplan import LinearProgram, Row, solve

        lp = LinearProgram(
            num_vars=3,
            objective=np.array([-1.0, -2.0, 0.5]),
            rows=[
                Row(np.array([0, 1]), np.array([1.0, 1.0]), "<=", 4.0, "cap"),
                Row(np.array([1, 2]), np.array([1.0, -1.0]), ">=", -1.0, "link"),
                Row(np.array([0, 2]), np.array([1.0, 1.0]), "=", 2.0, "fix"),
            ],
            lower=np.zeros(3),
            upper=np.array([np.inf, 3.0, 5.0]),
        )
        ref = reference.highs(lp)
        self.assertEqual((ref.status, ref.rows, ref.nnz), (0, 3, 6))
        self.assertAlmostEqual(ref.objective, solve(lp).objective_value, places=9)


def write_summaries(out: Path, summaries: dict) -> Path:
    """A stand-in run-all bundle: s{sid}/summary.json plus one data file."""
    for sid, summary in summaries.items():
        (out / f"s{sid}").mkdir(parents=True)
        (out / f"s{sid}" / "summary.json").write_text(json.dumps(summary))
        (out / f"s{sid}" / "plan.csv").write_text(f"region,tech\nr{sid},PV\n")
    return out


class Checks(unittest.TestCase):
    """The correctness and determinism gates reject bad outputs."""

    def setUp(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)
        self.n = 0

    def tearDown(self):
        import shutil

        shutil.rmtree(self.tmp)

    def lex_summaries(self) -> dict:
        gold = self.golden["lex"]
        return {
            sid: {"status": "optimal", "reduction_pct": gold[f"s{sid}"]["reduction_pct"],
                  "objective_yen": gold[f"s{sid}"]["objective_yen"]}
            for sid in (1, 2, 3, 4)
        }

    def failed(self, workload, dataset, n_ops, bundle, res=None) -> int:
        """Failed operations of one execution, with a fresh Checker that
        shares this test's determinism records."""
        checker = checks.Checker(ROOT, workload, dataset, GOLDEN, self.tmp / "state")
        checker.add_execution(bundle, res or {"rc": 0, "error": None})
        attempted, failed, _ = checker.finish(n_ops)
        self.assertEqual(attempted, n_ops)
        return failed

    def bundle(self, summaries: dict) -> Path:
        self.n += 1
        return write_summaries(self.tmp / f"out{self.n}", summaries)

    def test_runall_lex(self):
        # wrong values, before any determinism record exists
        s = self.lex_summaries()
        s[2]["reduction_pct"] += 1e-3
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(s)), 1)
        s = self.lex_summaries()
        s[3]["status"] = "infeasible"
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(s)), 1)
        s = self.lex_summaries()
        s[1]["objective_yen"] *= 1 + 1e-7
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(s)), 1)
        self.assertFalse((self.tmp / "state").exists())

        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(self.lex_summaries())), 0)
        # one changed byte against the stored record
        out = self.bundle(self.lex_summaries())
        (out / "s4" / "plan.csv").write_text("region,tech\nr4,PW\n")
        self.assertEqual(self.failed("runall-lex", TOY, 4, out), 1)

        # exit code 1: the missing scenario fails, the others are still checked
        out = self.bundle(self.lex_summaries())
        (out / "s1" / "summary.json").unlink()
        self.assertEqual(self.failed("runall-lex", TOY, 4, out, {"rc": 1, "error": None}), 1)
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(self.lex_summaries()),
                                     {"rc": 2, "error": None}), 4)
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(self.lex_summaries()),
                                     {"rc": None, "error": "Traceback\nValueError: x"}), 4)
        self.assertEqual(self.failed("runall-lex", TOY, 4, self.bundle(self.lex_summaries())), 0)

    def test_sweep(self):
        gold = self.golden["sweep_carbon_price_s1_cost"]

        def bundle(tamper=None):
            summary = {
                "threshold": gold["threshold"],
                "monotone": gold["monotone"],
                "points": [{"value": v, "reduction_pct": p, "error": None}
                           for v, p in zip(gold["grid"], gold["reduction_pct"])],
            }
            if tamper:
                tamper(summary)
            self.n += 1
            out = self.tmp / f"out{self.n}"
            out.mkdir()
            (out / "summary.json").write_text(json.dumps(summary))
            return out

        def shift_point(s):
            s["points"][5]["reduction_pct"] += 1e-3

        def fail_point(s):
            s["points"][0].update(reduction_pct=None, error="infeasible")

        def flip_monotone(s):
            s["monotone"] = not s["monotone"]

        n = len(gold["grid"])
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle()), 0)
        # the sweep's bundle is one file, so a point that changes it fails every point
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(shift_point)), n)
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(fail_point)), n)
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(flip_monotone)), n)

        state = self.tmp / "state" / "determinism"
        for record in state.iterdir():
            record.unlink()
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(shift_point)), 1)
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(fail_point)), 1)
        self.assertEqual(self.failed("sweep-cp16", TOY, n, bundle(flip_monotone)), n)

    def test_bau_against_highs(self):
        dataset = gen_bau.generate(TOY, self.tmp / "bau", 5)
        checker = checks.Checker(ROOT, "bau-large", dataset, GOLDEN, self.tmp / "state")
        want = checks.Checker(ROOT, "bau-large", dataset, GOLDEN, self.tmp / "state")._highs_objectives()

        def summaries(scale4=1.0):
            return {sid: {"status": "optimal", "reduction_pct": 0.0,
                          "objective_yen": want[sid] * (scale4 if sid == 4 else 1.0)}
                    for sid in (1, 2, 3, 4)}

        # the wrong objective comes first, so no determinism record can catch it
        checker.add_execution(self.bundle(summaries(1 + 1e-7)), {"rc": 0, "error": None})
        checker.add_execution(self.bundle(summaries()), {"rc": 0, "error": None})
        attempted, failed, messages = checker.finish(4)
        self.assertEqual((attempted, failed), (8, 1), messages)
        self.assertTrue(messages[0].startswith("execution 0: 1 failed, first: objective_yen"), messages)


class BauGenerator(unittest.TestCase):
    def test_seeded_dataset(self):
        import ccsplan
        from ccsplan import cli
        from ccsplan.builder import COST_ONLY

        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            a = gen_bau.generate(TOY, Path(tmp) / "a", 7)
            b = gen_bau.generate(TOY, Path(tmp) / "b", 7)
            c = gen_bau.generate(TOY, Path(tmp) / "c", 8)
            self.assertEqual(facts.tree_digest(a), facts.tree_digest(b))
            self.assertNotEqual(facts.tree_digest(a), facts.tree_digest(c))
            self.assertEqual(len(list((a / "series").iterdir())), 160)
            self.assertEqual(cli.main(["validate", "--data", str(a)]), 0)

            inst = ccsplan.load_validated(a)
            self.assertEqual(inst.n, 40)
            self.assertTrue(np.isinf(inst.globals.cap).all())  # no ceiling
            for sid in (1, 2, 3, 4):
                lp, _ = ccsplan.assemble(inst, ccsplan.scenario_config(sid, objective_mode=COST_ONLY))
                # x = lower bounds (all 0) satisfies every row: no phase 1
                self.assertTrue((lp.lower == 0).all())
                bad = [r.name for r in lp.rows if (r.sense == "<=" and r.rhs < 0)
                       or (r.sense == ">=" and r.rhs > 0) or (r.sense == "=" and r.rhs != 0)]
                self.assertEqual(bad, [], f"scenario {sid}: rows infeasible at x = 0")


if __name__ == "__main__":
    unittest.main()
