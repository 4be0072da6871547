"""Top-k retrieval metrics over ranked theme suggestions with gold labels.

Relevance is binary: the gold set for an appeal is the (usually singleton)
set of expert-assigned theme ids. The aggregate F1 is the harmonic mean of
the run's MAP@k and recall@k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from .ranking import RankedThemeList


@dataclass(frozen=True)
class Judgment:
    """One query's ranked suggestion ids and its non-empty relevant id set."""

    ranked_ids: tuple[str, ...]
    relevant_ids: frozenset[str]

    def __post_init__(self):
        if len(set(self.ranked_ids)) != len(self.ranked_ids):
            raise ValueError("ranked_ids must be distinct")
        if not self.relevant_ids:
            raise ValueError("relevant_ids must be non-empty")


@dataclass(frozen=True)
class MetricReport:
    """Per-run aggregates; every metric lies in [0, 1]."""

    k: int
    recall_at_k: float
    precision_at_k: float
    map_at_k: float
    f1: float
    ndcg_at_k: float
    query_count: int
    skipped: int = 0


def recall_at_k(judgment: Judgment, k: int) -> float:
    """Relevant items found in the first k positions / total relevant items."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = set(judgment.ranked_ids[:k])
    return len(judgment.relevant_ids & top) / len(judgment.relevant_ids)


def precision_at_k(judgment: Judgment, k: int) -> float:
    """Relevant items found in the first k positions / k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = set(judgment.ranked_ids[:k])
    return len(judgment.relevant_ids & top) / k


def average_precision(judgment: Judgment, k: int) -> float:
    """Mean of precision at each relevant position within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = 0
    total = 0.0
    for i, ranked_id in enumerate(judgment.ranked_ids[:k], start=1):
        if ranked_id in judgment.relevant_ids:
            hits += 1
            total += hits / i
    return total / len(judgment.relevant_ids)


def map_at_k(judgments: Sequence[Judgment], k: int) -> float:
    """Mean of per-query average precision."""
    if not judgments:
        raise ValueError("map_at_k requires at least one judgment")
    return sum(average_precision(j, k) for j in judgments) / len(judgments)


def f1(map_k: float, recall_k: float) -> float:
    """Harmonic mean of the aggregated MAP@k and recall@k; 0 when both are 0."""
    if map_k + recall_k == 0.0:
        return 0.0
    return 2.0 * map_k * recall_k / (map_k + recall_k)


def ndcg_at_k(judgment: Judgment, k: int) -> float:
    """Discounted gain of the ranking against the ideal ordering, binary relevance."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = 0.0
    for i, ranked_id in enumerate(judgment.ranked_ids[:k], start=1):
        if ranked_id in judgment.relevant_ids:
            dcg += 1.0 / math.log2(i + 1)
    ideal_hits = min(len(judgment.relevant_ids), k)
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, ideal_hits + 1))
    return dcg / idcg if idcg > 0 else 0.0


def evaluate_run(
    rankings: Iterable["RankedThemeList"], gold: Mapping[str, str], k: int
) -> MetricReport:
    """Aggregate all metrics over a batch of ranked lists.

    Rankings whose appeal id has no gold label are skipped and counted; an
    empty evaluable set is an error.
    """
    judgments = []
    skipped = 0
    for ranking in rankings:
        label = gold.get(ranking.appeal_id)
        if label is None:
            skipped += 1
            continue
        judgments.append(
            Judgment(
                ranked_ids=tuple(theme_id for theme_id, _ in ranking.entries),
                relevant_ids=frozenset({label}),
            )
        )
    if not judgments:
        raise ValueError("no evaluable rankings: every row lacked a resolvable gold label")

    count = len(judgments)
    recall = sum(recall_at_k(j, k) for j in judgments) / count
    precision = sum(precision_at_k(j, k) for j in judgments) / count
    mean_ap = map_at_k(judgments, k)
    ndcg = sum(ndcg_at_k(j, k) for j in judgments) / count
    return MetricReport(
        k=k,
        recall_at_k=recall,
        precision_at_k=precision,
        map_at_k=mean_ap,
        f1=f1(mean_ap, recall),
        ndcg_at_k=ndcg,
        query_count=count,
        skipped=skipped,
    )
