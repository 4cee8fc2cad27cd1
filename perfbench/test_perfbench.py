"""Self-tests of the benchmark's own logic; no build needed.

    python3 -m unittest discover -s perfbench
"""

import hashlib
import json
import math
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import analysis
import run
import workloads


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(analysis.tail_percentile(10))
        self.assertEqual(analysis.tail_percentile(11), 9)
        self.assertEqual(analysis.tail_percentile(50), 80)
        self.assertEqual(analysis.tail_percentile(100), 90)
        self.assertEqual(analysis.tail_percentile(108), 90)
        self.assertEqual(analysis.tail_percentile(1000), 99)
        for n in range(11, 400):
            p = analysis.tail_percentile(n)
            beyond = n - math.ceil(p * n / 100)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 90), 90)
        self.assertEqual(analysis.percentile([5.0], 99), 5.0)
        self.assertEqual(analysis.median([3, 1, 2, 4]), 2.5)


def span(sid, parent, thread, start, end, name):
    return {"id": sid, "parent": parent, "name": name, "thread": thread, "campaign": 1,
            "start_ns": start, "end_ns": end}


class SpanTable(unittest.TestCase):
    # root [0,100) on thread 1; A [10,60) under it; A's children B [20,50)
    # on thread 2 and C [40,70) on thread 3 overlap each other, and C
    # outlives A; D [60,90) under root with E [65,80) nested inside.
    SPANS = [
        span(1, 0, 1, 0, 100, "run"),
        span(2, 1, 1, 10, 60, "A"),
        span(3, 2, 2, 20, 50, "B"),
        span(4, 2, 3, 40, 70, "C"),
        span(5, 1, 1, 60, 90, "D"),
        span(6, 5, 1, 65, 80, "E"),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        names = analysis.span_table(self.SPANS)["names"]
        self.assertEqual(names["A"]["self_ns"], 10)  # 50 - |[20,50) u [40,60)|
        self.assertEqual(names["B"]["self_ns"], 30)
        self.assertEqual(names["C"]["self_ns"], 30)
        self.assertEqual(names["D"]["self_ns"], 15)
        self.assertEqual(names["E"]["self_ns"], 15)
        self.assertEqual(names["A"]["busy_ns"], 50)

    def test_wall_shares_add_up_to_the_traced_wall(self):
        table = analysis.span_table(self.SPANS)
        expected = {"A": 10, "B": 25, "C": 20, "D": 12.5, "E": 12.5}
        for name, wall in expected.items():
            self.assertAlmostEqual(table["names"][name]["wall_ns"], wall)
        self.assertAlmostEqual(table["unattributed_ns"], 20)
        total = sum(r["share"] for r in table["names"].values()) + table["unattributed_share"]
        self.assertAlmostEqual(total, 1.0)

    def test_worker_busy_fraction(self):
        spans = [
            span(1, 0, 1, 0, 100, "run"),
            span(2, 1, 1, 0, 100, "cli.runner"),
            span(3, 2, 2, 0, 100, "cli.runner.worker"),
            span(4, 2, 3, 0, 50, "cli.runner.worker"),
            span(5, 3, 2, 0, 80, "cli.job.run_point"),
            span(6, 4, 3, 10, 50, "cli.job.run_point"),
        ]
        self.assertAlmostEqual(analysis.worker_busy_frac(spans), (80 + 40) / 200)


RECORDS = (
    "op_index,qubit,theta,phi,qvf,severity\n"
    "0,0,0.000000000,0.000000000,0.123456,masked\n"
    "0,0,3.141592654,0.000000000,0.654321,sdc\n"
    "1,1,0.000000000,0.000000000,0.222222,masked\n"
    "1,1,3.141592654,0.000000000,0.777777,sdc\n"
)


def flip(text, needle):
    """`text` with the first byte of `needle` changed."""
    i = text.index(needle)
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


class Counter:
    """The part of `run.Bench` that verification reports to."""

    def __init__(self):
        self.attempted = self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        self.failed += not ok


class Verification(unittest.TestCase):
    def test_pinned_digests_catch_one_flipped_byte(self):
        jobs = list(workloads.PAPER_DIGESTS)
        digest = hashlib.sha256(RECORDS.encode()).hexdigest()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(workloads.PAPER_DIGESTS, {job: digest for job in jobs}):
            out = Path(tmp)
            for job in jobs:
                path = out / "results" / job / "records.csv"
                path.parent.mkdir(parents=True)
                path.write_text(RECORDS)
            b = Counter()
            self.assertEqual(run.verify_paper(b, out, "test"), 4 * len(jobs))
            self.assertEqual((b.attempted, b.failed), (len(jobs), 0))
            (out / "results" / jobs[1] / "records.csv").write_text(flip(RECORDS, "654321"))
            b = Counter()
            self.assertEqual(run.verify_paper(b, out, "test"), 4 * (len(jobs) - 1))
            self.assertEqual((b.attempted, b.failed), (len(jobs), 1))

    def test_recomputed_records_catch_one_flipped_byte(self):
        self.assertTrue(analysis.records_match(RECORDS, RECORDS, sampled=False))
        self.assertFalse(analysis.records_match(RECORDS, flip(RECORDS, "654321"), sampled=False))

    def test_sampled_points_catch_a_flip_at_a_sampled_point(self):
        lines = RECORDS.splitlines(keepends=True)
        sample = lines[0] + "".join(lines[3:])  # point (1, 1) only
        self.assertTrue(analysis.records_match(sample, RECORDS, sampled=True))
        self.assertFalse(analysis.records_match(sample, flip(RECORDS, "777777"), sampled=True))
        # A flip at an unsampled point is outside what the sample checks.
        self.assertTrue(analysis.records_match(sample, flip(RECORDS, "654321"), sampled=True))
        # A missing row at a sampled point fails.
        self.assertFalse(analysis.records_match(sample, "".join(lines[:4]), sampled=True))


class Workloads(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(workloads.serve_mix(3, 2), workloads.serve_mix(3, 2))
        self.assertNotEqual(workloads.serve_mix(3, 2), workloads.serve_mix(4, 2))
        self.assertEqual(workloads.paper(3), workloads.paper(3))
        self.assertIn("seed = 3\n", workloads.traj_shard(3))

    def test_serve_mix_reuses_half_the_cells_at_a_fixed_cost(self):
        def work(subs):
            return [(s["workload"], s["grid"]) for s in subs]

        subs = workloads.serve_mix(7, 2)
        self.assertEqual(len(subs), 36)
        self.assertEqual(len({s["name"] for s in subs}), 36)
        cells = {}
        for i, s in enumerate(subs):
            cells.setdefault((s["executor"], s["workload"], s["backend"]), []).append(i)
        self.assertEqual(len(cells), 18)
        for positions in cells.values():
            self.assertEqual(len(positions), 2)
            self.assertLessEqual(positions[1] - positions[0], 3)  # still cached
        # The work does not depend on the seed; the manifest seed does.
        other = workloads.serve_mix(8, 2)
        self.assertEqual(work(subs), work(other))
        self.assertNotEqual(subs[0]["manifest"], other[0]["manifest"])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match_the_benchmark(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
