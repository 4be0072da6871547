"""Top-k retrieval metrics over ranked theme suggestions with gold labels.

Each appeal has one expert-assigned gold theme, so every per-appeal metric
follows from that theme's 1-based rank r in the top k: recall 1, precision
1/k, average precision 1/r and NDCG 1/log2(r + 1), each 0 when the gold
theme is not in the top k. The aggregate F1 is the harmonic mean of the
run's MAP@k and recall@k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:
    from .ranking import RankedThemeList


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


def f1(map_k: float, recall_k: float) -> float:
    """Harmonic mean of the aggregated MAP@k and recall@k; 0 when both are 0."""
    if map_k + recall_k == 0.0:
        return 0.0
    return 2.0 * map_k * recall_k / (map_k + recall_k)


def evaluate_run(
    rankings: Iterable["RankedThemeList"], gold: Mapping[str, str], k: int
) -> MetricReport:
    """Aggregate all metrics over a batch of ranked lists.

    Rankings whose appeal id has no gold label are skipped and counted; an
    empty evaluable set is an error. Per-appeal values are summed in input
    order, a miss adding nothing.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    recall = precision = mean_ap = ndcg = 0.0
    count = skipped = 0
    for ranking in rankings:
        label = gold.get(ranking.appeal_id)
        if label is None:
            skipped += 1
            continue
        count += 1
        top = [theme_id for theme_id, _ in ranking.entries[:k]]
        if label in top:
            rank = top.index(label) + 1
            recall += 1.0
            precision += 1 / k
            mean_ap += 1 / rank
            ndcg += 1.0 / math.log2(rank + 1)
    if not count:
        raise ValueError("no evaluable rankings: every row lacked a resolvable gold label")

    recall, mean_ap = recall / count, mean_ap / count
    return MetricReport(
        k=k,
        recall_at_k=recall,
        precision_at_k=precision / count,
        map_at_k=mean_ap,
        f1=f1(mean_ap, recall),
        ndcg_at_k=ndcg / count,
        query_count=count,
        skipped=skipped,
    )
