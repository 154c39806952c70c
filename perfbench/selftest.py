"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks that the traced run binds every copy of each traced function, that
the digest gate fails a report that differs by one byte, that traced and
untraced reports are byte-identical, that every per-layer metric is reached
on the workload meant to exercise it (and the predicted zeros hold), and
that every count repeats exactly across two traced runs.  Takes about
two minutes: it runs each workload's first two windows of op pairs,
traced twice.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

import workloads
from run import REF_NOMINAL_S, end_to_end, overhead, tail
from tracer import METRICS, TARGETS, Tracer, span_name
from worker import check_op, import_cli, run_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The workload on which each span's metrics must be nonzero.
EXERCISED_ON = {
    "polarize": (
        "exactla.charpoly", "exactla.rational_roots",
        "exactla.jordan_chevalley", "lie_core.LieAlgebra.bracket",
        "lie_core.eigensplit", "lie_core.centralizer_of_form",
        "lie_core.nilradical", "pairs.builtin_pair", "pairs.regular_min_dim",
        "polarization.sample_polarizable_forms",
        "polarization.construct_polarization",
        "polarization.verify_polarization", "polarization.pukanszky_check",
        "cli.load_pair", "cli.render", "cli.cmd"),
    "rouviere-deep": (
        "exactla.rref", "poly_series.invariants_up_to_degree",
        "poly_series.j_half", "poly_series.apply_cc_operator",
        "pbw_quotient.PBWContext.straighten", "pbw_quotient.symmetrize",
        "pbw_quotient.pbw_multiply", "pbw_quotient.reduce_mod_ideal",
        "pbw_quotient.invariant_class_filtered_dims",
        "pbw_quotient.invariant_class_basis",
        "pbw_quotient.verify_rouviere_homomorphism",
        "pbw_quotient.commutativity_check"),
    "rouviere-wide": (
        "pairs.SymmetricPair.decompose", "poly_series.k_derivation",
        "poly_series.j_series", "pbw_quotient.class_k_action",
        "pbw_quotient.is_invariant_class", "pbw_quotient.class_multiply"),
}

# Rejection reasons the sampler may legitimately never meet.
MAY_BE_ZERO = {
    "polarization.sample_polarizable_forms.rejected_not_regular",
    "polarization.sample_polarizable_forms.rejected_base_case",
}

# Bindings made by `from .x import y` that a traced run must replace.
BINDINGS = (
    ("sympair.lie_core", "charpoly"), ("sympair.lie_core", "rational_roots"),
    ("sympair.pairs", "centralizer_of_form"),
    ("sympair.polarization", "jordan_chevalley"),
    ("sympair.polarization", "eigensplit"),
    ("sympair.polarization", "nilradical"),
    ("sympair.pbw_quotient", "invariants_up_to_degree"),
    ("sympair.pbw_quotient", "j_half"),
    ("sympair.pbw_quotient", "k_derivation"),
    ("sympair.cli", "verify_rouviere_homomorphism"),
    ("sympair.cli", "commutativity_check"),
    ("sympair.cli", "j_half"), ("sympair.cli", "j_series"),
    ("sympair.cli", "builtin_pair"),
    ("sympair.cli", "construct_polarization"),
    ("sympair.cli", "sample_polarizable_forms"),
    ("sympair.cli", "verify_polarization"),
    ("sympair.cli", "pukanszky_check"),
)

BENCH = os.path.join(ROOT, "BENCHMARK.json")


def is_count(metric):
    return not metric.endswith(".self_s")


def run_bench(workload, trace, seconds=1, seed=workloads.DEFAULT_SEED):
    """One run.py run; (final result line, record file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


class TracerBindings(unittest.TestCase):

    def test_every_binding_replaced_and_restored(self):
        import_cli()
        mods = {n: m for n, m in sys.modules.items()
                if n == "sympair" or n.startswith("sympair.")}
        before = {(n, k): v for n, m in mods.items()
                  for k, v in vars(m).items()}
        tracer = Tracer()
        tracer.install()
        try:
            for mod, attr in BINDINGS:
                fn = getattr(sys.modules[mod], attr)
                self.assertTrue(hasattr(fn, "__traced_name__"), (mod, attr))
            for mod, attr in TARGETS:
                if "." in attr:
                    cls, meth = attr.split(".")
                    fn = getattr(getattr(mods["sympair." + mod], cls), meth)
                    self.assertEqual(fn.__traced_name__,
                                     span_name(mod, attr))
                    continue
                original = getattr(mods["sympair." + mod], attr).__wrapped__
                for n, m in mods.items():
                    for k, v in vars(m).items():
                        self.assertIsNot(v, original, (n, k))
        finally:
            tracer.uninstall()
        after = {(n, k): v for n, m in mods.items()
                 for k, v in vars(m).items()}
        self.assertEqual(before, after)


class DigestGate(unittest.TestCase):

    def test_one_changed_byte_fails(self):
        cli = import_cli()
        digests = workloads.load_digests()
        wide = workloads.WORKLOADS["rouviere-wide"]
        for seed in (workloads.DEFAULT_SEED, 7):
            argv = wide.argv(seed, 0)
            _, code, text, error = run_op(cli, argv)
            self.assertIsNone(check_op(cli, digests, argv, code, text, error))
        spaced = text.replace('"passed": true', '"passed": true ', 1)
        self.assertEqual(check_op(cli, digests, argv, code, spaced, None),
                         "report is not in canonical JSON form")
        renamed = text.replace("graded_dimensions", "graded_dimensionz", 1)
        self.assertIn("differs from recorded",
                      check_op(cli, digests, argv, code, renamed, None))
        self.assertIn("no recorded digest",
                      check_op(cli, {}, argv, code, text, None))

    def test_every_op_has_a_digest(self):
        digests = workloads.load_digests()
        pools = {}
        for w in workloads.WORKLOADS.values():
            pools[w.name] = {" ".join(w.argv(workloads.DEFAULT_SEED, i))
                             for i in range(w.pool)}
            self.assertLessEqual(pools[w.name], set(digests))
        polarize = workloads.WORKLOADS["polarize"]
        for seed in (5, 123):
            self.assertEqual({" ".join(polarize.argv(seed, i))
                              for i in range(polarize.pool)},
                             pools["polarize"])


class Statistics(unittest.TestCase):

    def test_tail_is_nearest_rank_p90(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 3))
        self.assertEqual(tail([5.0]), (5.0, 1))
        self.assertEqual(tail([float(i) for i in range(1, 17)]), (15.0, 15))
        self.assertEqual(tail([float(i) for i in range(1, 21)]), (18.0, 18))
        for n in range(2, 41):
            values = [float(i) for i in range(n)]
            self.assertGreater(tail(values)[0], statistics.median(values))

    def test_overhead_is_median_ratio_with_half_range(self):
        ops = [{"seconds": 1.0, "traced_seconds": 1.1},
               {"seconds": 2.0, "traced_seconds": 2.0}]
        ratio, resolution = overhead(ops)
        self.assertAlmostEqual(ratio, 1.05)
        self.assertAlmostEqual(resolution, 0.05)

    def test_times_scaled_by_the_host_reference(self):
        ops = [{"seconds": 2.0, "failure": None},
               {"seconds": 4.0, "failure": None}]
        # The median bare interpreter time is twice the nominal one.
        slow = 2 * REF_NOMINAL_S
        host = [(0.3, [slow, slow, 9.0]), (0.2, [slow, 0.0, 0.0]),
                (0.1, [slow, slow, slow])]
        metrics, detail = end_to_end(ops, 8.0, 20.0, host)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.1)
        self.assertAlmostEqual(metrics["op_s_p50"][0], 1.5)
        self.assertAlmostEqual(metrics["op_s_tail"][0], 2.0)
        self.assertAlmostEqual(metrics["ops_per_s"][0], 0.5)
        self.assertAlmostEqual(detail["raw_op_s_p50"], 3.0)
        self.assertAlmostEqual(detail["raw_setup_s"], 0.2)

    def test_end_to_end_names_match_benchmark(self):
        ops = [{"seconds": 1.0, "failure": None}]
        metrics, _ = end_to_end(ops, 1.0, 20.0, [(0.1, [0.05])])
        with open(BENCH, encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in bench["end_to_end"]))
        for m in bench["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])


class Workloads(unittest.TestCase):
    """Per-workload traced runs; each workload's ops run four times."""

    @classmethod
    def setUpClass(cls):
        with open(BENCH, encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        cls.traced = {}
        for name in workloads.WORKLOADS:
            cls.traced[name] = [run_bench(name, 1) for _ in range(2)]

    def test_names_match_benchmark(self):
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(workloads.WORKLOADS))
        units = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        result, _ = self.traced["polarize"][0]
        self.assertEqual(sorted(units), sorted(result["metrics"]))
        for name, got in result["metrics"].items():
            self.assertEqual(got["unit"], units[name], name)
        self.assertEqual(len(METRICS), 71)

    def test_traced_reports_identical_and_correct(self):
        for name, runs in self.traced.items():
            for result, record in runs:
                self.assertTrue(result["correct"], record["context"])
                self.assertEqual(result["failed"], 0, name)
                self.assertGreaterEqual(record["context"]["op_pairs"], 2)

    def test_each_metric_reached_where_mapped(self):
        for workload, spans in EXERCISED_ON.items():
            metrics = self.traced[workload][0][0]["metrics"]
            for span in spans:
                names = [m for m, _ in METRICS if m.startswith(span + ".")]
                self.assertTrue(names, span)
                for m in names:
                    value = metrics[m]["value"]
                    self.assertIsNotNone(value, m)
                    if m not in MAY_BE_ZERO:
                        self.assertGreater(value, 0, (workload, m))
        mapped = {s for spans in EXERCISED_ON.values() for s in spans}
        self.assertEqual(mapped, {m.rsplit(".", 1)[0] for m, _ in METRICS})

    def test_predicted_zeros(self):
        for workload in ("rouviere-deep", "rouviere-wide"):
            metrics = self.traced[workload][0][0]["metrics"]
            self.assertEqual(metrics["exactla.charpoly.calls"]["value"], 0)
        metrics = self.traced["polarize"][0][0]["metrics"]
        for m, _ in METRICS:
            if m.startswith(("pbw_quotient.", "poly_series.")) and \
                    m.endswith(".calls"):
                self.assertEqual(metrics[m]["value"], 0, m)

    def test_counts_repeat_exactly(self):
        for name, (first, second) in self.traced.items():
            for m, _ in METRICS:
                if is_count(m):
                    self.assertEqual(first[0]["metrics"][m]["value"],
                                     second[0]["metrics"][m]["value"],
                                     (name, m))


if __name__ == "__main__":
    unittest.main()
