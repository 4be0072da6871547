from __future__ import annotations

import math
import random

import pytest

from oracles import average_precision_brute, ndcg_brute, precision_brute, recall_brute
from themerank.metrics import evaluate_run, f1
from themerank.ranking import RankedThemeList


def ranking(theme_ids, appeal_id="A1") -> RankedThemeList:
    return RankedThemeList(appeal_id, tuple((t, 1.0) for t in theme_ids))


def single_hit_at(rank_position: int, k: int = 6) -> tuple:
    """A ranking of k themes whose gold theme sits at ``rank_position``, and its gold map."""
    ranked = [f"t{i}" for i in range(1, k + 1)]
    return ranking(ranked), {"A1": ranked[rank_position - 1]}


def evaluate_one(ranked_and_gold: tuple, k: int):
    ranked, gold = ranked_and_gold
    return evaluate_run([ranked], gold, k)


MISS = (ranking([f"t{i}" for i in range(1, 7)]), {"A1": "absent"})


class TestRecall:
    def test_hit_within_k(self):
        assert evaluate_one(single_hit_at(3), 6).recall_at_k == 1.0

    def test_miss(self):
        assert evaluate_one(MISS, 6).recall_at_k == 0.0

    def test_invalid_k(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                evaluate_one(single_hit_at(1), k)


class TestPrecision:
    def test_single_hit_k6(self):
        assert evaluate_one(single_hit_at(3), 6).precision_at_k == 1 / 6

    def test_miss(self):
        assert evaluate_one(MISS, 6).precision_at_k == 0.0

    def test_hit_at_one_k_one(self):
        assert evaluate_one(single_hit_at(1), 1).precision_at_k == 1.0


class TestAveragePrecision:
    def test_hit_at_three(self):
        assert evaluate_one(single_hit_at(3), 6).map_at_k == 1 / 3

    def test_hit_at_one(self):
        assert evaluate_one(single_hit_at(1), 6).map_at_k == 1.0

    def test_miss(self):
        assert evaluate_one(MISS, 6).map_at_k == 0.0


class TestMap:
    def test_mean_of_two_queries(self):
        rankings = [ranking(["t1", "t2", "t3"], "A1"), ranking(["t1", "t2", "t3"], "A2")]
        report = evaluate_run(rankings, {"A1": "t1", "A2": "t3"}, 6)
        assert report.map_at_k == pytest.approx((1.0 + 1 / 3) / 2)

    def test_all_perfect(self):
        rankings = [ranking(["t1", "t2"], f"A{i}") for i in range(4)]
        report = evaluate_run(rankings, {r.appeal_id: "t1" for r in rankings}, 6)
        assert report.map_at_k == 1.0

    def test_single_query_equals_its_ap(self):
        assert evaluate_one(single_hit_at(2), 6).map_at_k == 1 / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate_run([], {}, 6)


class TestF1:
    def test_equal_inputs(self):
        assert f1(0.42, 0.42) == pytest.approx(0.42)

    def test_reference_pair_one(self):
        assert f1(0.5345, 0.7575) == pytest.approx(0.6268, abs=2e-4)

    def test_reference_pair_two(self):
        assert f1(0.5498, 0.7545) == pytest.approx(0.6361, abs=2e-4)

    def test_zero_when_both_zero(self):
        assert f1(0.0, 0.0) == 0.0


class TestNdcg:
    def test_hit_at_one(self):
        assert evaluate_one(single_hit_at(1), 6).ndcg_at_k == 1.0

    def test_hit_at_three(self):
        assert evaluate_one(single_hit_at(3), 6).ndcg_at_k == pytest.approx(1 / math.log2(4))

    def test_miss(self):
        assert evaluate_one(MISS, 6).ndcg_at_k == 0.0

    def test_non_decreasing_in_k(self):
        values = [evaluate_one(single_hit_at(5), k).ndcg_at_k for k in range(1, 7)]
        assert values == sorted(values)


def random_batch(rng: random.Random, size: int) -> tuple[list[RankedThemeList], dict, int]:
    """Rankings of 1 to 10 themes with k from 1 to 10, so some are shorter
    than k; each appeal's gold theme is in its ranking, absent from it, or
    missing from the gold map."""
    k = rng.randint(1, 10)
    rankings, gold = [], {}
    for i in range(size):
        ranked = [f"t{j}" for j in range(rng.randint(1, 10))]
        rankings.append(ranking(ranked, f"A{i}"))
        draw = rng.random()
        if draw < 0.6:
            gold[f"A{i}"] = rng.choice(ranked)
        elif draw < 0.9:
            gold[f"A{i}"] = "absent"
    return rankings, gold, k


def assert_matches_oracles(rankings: list[RankedThemeList], gold: dict, k: int) -> None:
    """evaluate_run agrees with the brute-force evaluators to 1e-12, counts
    the unlabelled rankings, and rejects a batch with no labelled one."""
    flags = [
        [1 if theme_id == gold[r.appeal_id] else 0 for theme_id, _ in r.entries]
        for r in rankings
        if r.appeal_id in gold
    ]
    if not flags:
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate_run(rankings, gold, k)
        return
    report = evaluate_run(rankings, gold, k)
    count = len(flags)
    assert (report.query_count, report.skipped) == (count, len(rankings) - count)
    brute = {
        "recall_at_k": sum(recall_brute(f, k, 1) for f in flags) / count,
        "precision_at_k": sum(precision_brute(f, k) for f in flags) / count,
        "map_at_k": sum(average_precision_brute(f, k, 1) for f in flags) / count,
        "ndcg_at_k": sum(ndcg_brute(f, k, 1) for f in flags) / count,
    }
    for name, expected in brute.items():
        assert abs(getattr(report, name) - expected) <= 1e-12, name


class TestProperties:
    def test_all_metrics_in_unit_interval_and_singleton_identities(self):
        rng = random.Random(71)
        for _ in range(300):
            k = rng.randint(1, 10)
            ranked = [f"t{i}" for i in range(rng.randint(1, k))]
            label = rng.choice(ranked) if rng.random() < 0.8 else "absent"
            report = evaluate_run([ranking(ranked)], {"A1": label}, k)
            values = (report.recall_at_k, report.map_at_k, report.ndcg_at_k, report.precision_at_k)
            for value in values:
                assert 0.0 <= value <= 1.0
            assert report.recall_at_k in (0.0, 1.0)
            # precision*k counts the hits, hence an integer
            assert abs(report.precision_at_k * k - round(report.precision_at_k * k)) < 1e-12
            if report.recall_at_k == 1.0:
                hit_rank = ranked.index(label) + 1
                assert report.map_at_k == pytest.approx(1 / hit_rank)
                assert report.ndcg_at_k == pytest.approx(1 / math.log2(hit_rank + 1))
            else:
                assert report.map_at_k == 0.0 and report.ndcg_at_k == 0.0

    def test_invariant_under_relabeling(self):
        for k in (1, 2, 3):
            report = evaluate_run([ranking(["x", "y", "z"])], {"A1": "y"}, k)
            relabeled = evaluate_run([ranking(["10", "20", "30"], "B7")], {"B7": "20"}, k)
            assert report == relabeled

    def test_matches_brute_force_oracle(self):
        rng = random.Random(73)
        for _ in range(500):
            rankings, gold, k = random_batch(rng, rng.randint(1, 8))
            assert_matches_oracles(rankings, gold, k)


class TestEvaluateRun:
    def _ranking(self, appeal_id, theme_ids):
        return ranking(theme_ids, appeal_id)

    def test_single_perfect_query(self):
        rankings = [self._ranking("A1", ["T1", "T2", "T3"])]
        report = evaluate_run(rankings, {"A1": "T1"}, k=6)
        assert report.recall_at_k == report.map_at_k == report.ndcg_at_k == report.f1 == 1.0
        assert report.query_count == 1 and report.skipped == 0

    def test_hit_and_miss(self):
        rankings = [
            self._ranking("A1", ["T1", "T2"]),
            self._ranking("A2", ["T1", "T2"]),
        ]
        report = evaluate_run(rankings, {"A1": "T1", "A2": "T404"}, k=6)
        assert report.recall_at_k == 0.5
        assert report.map_at_k == 0.5
        assert report.ndcg_at_k == 0.5

    def test_unlabeled_rows_skipped_and_counted(self):
        rankings = [self._ranking("A1", ["T1"]), self._ranking("A2", ["T1"])]
        report = evaluate_run(rankings, {"A1": "T1"}, k=6)
        assert report.query_count == 1 and report.skipped == 1

    def test_zero_evaluable_rejected(self):
        rankings = [self._ranking("A1", ["T1"])]
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate_run(rankings, {}, k=6)

    def test_f1_from_aggregates(self):
        rankings = [
            self._ranking("A1", ["T1", "T2", "T3"]),
            self._ranking("A2", ["T9", "T2", "T3"]),
        ]
        gold = {"A1": "T1", "A2": "T3"}
        report = evaluate_run(rankings, gold, k=3)
        assert report.f1 == pytest.approx(f1(report.map_at_k, report.recall_at_k))
