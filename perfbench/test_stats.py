"""Tests of the harness's own arithmetic and known answers.

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import random
import unittest

import mix
import oracle
import stats


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.5), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: exactly 10 lie above the p99 rank.
        self.assertEqual(stats.beyond(1000, 0.99), 10)
        label, value, n = stats.tail(list(range(1000)))
        self.assertEqual((label, value, n), ("p99", 989, 1000))
        # One sample fewer and p99 has only 9 beyond: fall back to p90.
        self.assertEqual(stats.beyond(999, 0.99), 9)
        self.assertEqual(stats.tail(list(range(999)))[0], "p90")

    def test_tail_reports_sample_count_and_gives_up_on_tiny_sets(self):
        self.assertEqual(stats.tail(list(range(100)))[0], "p90")
        self.assertEqual(stats.tail(list(range(100)))[2], 100)
        self.assertEqual(stats.tail(list(range(20)))[0], "p50")
        self.assertIsNone(stats.tail(list(range(19))))
        s = stats.summary([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["p50"], s["tail"]), (3, 2.0, None))

    def test_order_does_not_matter(self):
        values = [random.Random(1).random() for _ in range(500)]
        shuffled = values[:]
        random.Random(2).shuffle(shuffled)
        self.assertEqual(stats.tail(values), stats.tail(shuffled))


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("run", 0.0, 10.0, -1, -1),
            ("a", 1.0, 4.0, 0, 0),
            ("a.child", 2.0, 3.0, 1, 0),
            ("b", 5.0, 9.0, 0, 1),
        ]
        self.assertEqual(stats.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_only_direct_children_count(self):
        # The grandchild is already inside its parent's interval.
        spans = [("root", 0, 8, -1, -1), ("mid", 1, 7, 0, -1), ("leaf", 2, 6, 1, -1)]
        self.assertEqual(stats.self_times(spans), [2, 2, 4])

    def test_overlapping_and_overhanging_children(self):
        spans = [
            ("p", 0.0, 10.0, -1, -1),
            ("c1", 2.0, 6.0, 0, -1),
            ("c2", 4.0, 8.0, 0, -1),  # overlaps c1: 4..6 counted once
            ("c3", 9.0, 12.0, 0, -1),  # runs past the parent: clipped at 10
        ]
        self.assertEqual(stats.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_by_name_groups_durations_and_self_times(self):
        spans = [("r", 0, 4, -1, -1), ("x", 0, 1, 0, 0), ("x", 2, 4, 0, 1)]
        names = stats.by_name(spans)
        self.assertEqual(names["x"], ([1, 2], [1, 2]))
        self.assertEqual(names["r"], ([4], [1]))


class FailShare(unittest.TestCase):
    def test_all_failure_kinds_count(self):
        outcomes = ["ok", "shed", "unknown", "timeout", "wrong", "failed", "ok", "ok"]
        self.assertEqual(stats.fail_share(outcomes), (8, 5, 5 / 8))

    def test_clean_run(self):
        self.assertEqual(stats.fail_share(["ok"] * 4), (4, 0, 0.0))

    def test_rejects_empty_and_unknown_outcomes(self):
        with self.assertRaises(ValueError):
            stats.fail_share([])
        with self.assertRaises(ValueError):
            stats.fail_share(["ok", "maybe"])


class Oracle(unittest.TestCase):
    def test_fischer_mutual_exclusion(self):
        self.assertTrue(oracle.fischer_mutex(1, 2))
        self.assertFalse(oracle.fischer_mutex(2, 2))
        self.assertFalse(oracle.fischer_mutex(3, 1))
        # critical section left within e = 2 < b: no overlap possible
        self.assertTrue(oracle.fischer_mutex(3, 3))

    def test_paper_bounds(self):
        rm = {"op": "verify", "system": "rm", "item": 1, "params": {"k": 3, "c1": 2, "c2": 3, "l": 1}}
        self.assertIsNone(oracle.check_request(rm, {"result": "verified", "bounds": "[5, 10]"}))
        self.assertIsNotNone(oracle.check_request(rm, {"result": "verified", "bounds": "[6, 10]"}))
        relay = {"op": "verify", "system": "relay", "item": 0, "params": {"n": 4, "d1": 1, "d2": 2}}
        self.assertIsNone(oracle.check_request(relay, {"result": "verified", "bounds": "[4, 8]"}))

    def test_margins(self):
        row = lambda t, attained, refuted: {"threshold": t, "attained": attained,
                                            "exact": refuted is not None, "refuted_at": refuted}
        open1 = [{"per_class": {"SET_1": row("1", False, "1"), "SET_2": row("1", False, "1")}}]
        self.assertIsNone(oracle.fischer_set_margin(open1, 2, 1, 2))
        self.assertIsNotNone(oracle.fischer_set_margin(open1, 2, 1, 3))
        censored = [{"per_class": {"SET_1": row("8", True, None), "SET_2": row("8", True, None)}}]
        self.assertIsNone(oracle.fischer_set_margin(censored, 2, 1, 3))
        fd = {"op": "margin", "system": "fd", "params": {"g1": 4, "g2": 5, "m": 1}}
        self.assertIsNone(oracle.check_request(fd, {"reports": [{"per_class": {"HB": row("2", False, "2")}}]}))
        self.assertIsNotNone(oracle.check_request(fd, {"reports": [{"per_class": {"HB": row("2", True, None)}}]}))


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first = lambda seed, n: list(itertools.islice(mix.sessions(seed), n))
        self.assertEqual(first(7, 3), first(7, 3))
        self.assertNotEqual(first(7, 1), first(8, 1))

    def test_session_shape(self):
        seq = mix.session(random.Random(0), mix.universe())
        first = [req for req, fresh in seq if fresh]
        self.assertEqual(len(first), mix.PER_KIND * len(mix.KINDS))
        self.assertEqual(len({mix.key(r) for r in first}), len(first))
        # one twin per kind on top of the hits, each right after its job
        repeats = [req for req, fresh in seq if not fresh]
        self.assertEqual(len(repeats), mix.HITS_PER_COLD * len(first) + len(mix.KINDS))
        twinned = {(a["system"], a["op"], a["params"].get("n"))
                   for (a, fa), (b, fb) in zip(seq, seq[1:]) if fa and not fb and a == b}
        self.assertLessEqual({("fischer", "verify", 3), ("fischer", "verify", 2), ("fd", "margin", None)},
                             twinned)
        self.assertTrue(seq[0][1], "a session starts with a first-seen job")
        seen = set()
        for req, fresh in seq:
            self.assertEqual(fresh, mix.key(req) not in seen)
            seen.add(mix.key(req))

    def test_every_job_has_a_known_answer(self):
        for jobs in mix.universe().values():
            for req in jobs:
                self.assertNotIn("no known answer", oracle.check_request(req, {}) or "")

    def test_frames_round_trip_in_pieces(self):
        data = mix.frame('{"op":"ping"}') + mix.frame("[]")
        rd = mix.Reader()
        got = []
        for i in range(len(data)):
            got += rd.feed(data[i : i + 1])
        self.assertEqual(got, ['{"op":"ping"}', "[]"])


if __name__ == "__main__":
    unittest.main()
