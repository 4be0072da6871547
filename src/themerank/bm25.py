"""Okapi-style BM25 scoring over an immutable term-statistics index.

Two idf variants are exposed: ``nonnegative`` (default) uses
``ln(1 + (N - df + 0.5) / (df + 0.5))`` and never yields negative scores;
``epsilon_floor`` uses the raw log-odds idf with negative values replaced by
``epsilon`` times the mean of the positive idf values. Scores accumulate in
ascending lexicographic term order so results are bit-reproducible.

Reference: Robertson & Zaragoza 2009, *The Probabilistic Relevance
Framework: BM25 and Beyond*.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

IDF_VARIANTS = ("nonnegative", "epsilon_floor")


@dataclass(frozen=True)
class Bm25Params:
    """Tunable scoring parameters.

    ``k1 >= 0`` controls term-frequency saturation, ``b`` in [0, 1] controls
    document-length normalization, ``epsilon > 0`` only matters under the
    ``epsilon_floor`` idf variant.
    """

    k1: float = 1.5
    b: float = 0.75
    idf_variant: str = "nonnegative"
    epsilon: float = 0.25

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.idf_variant not in IDF_VARIANTS:
            raise ValueError(f"idf_variant must be one of {IDF_VARIANTS}, got {self.idf_variant!r}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


class Bm25Index:
    """Immutable term statistics over a document set, built by build_index."""

    def __init__(
        self,
        doc_ids: tuple[str, ...],
        term_frequencies: tuple[dict[str, int], ...],
        doc_lengths: np.ndarray,
        doc_freq: dict[str, int],
        params: Bm25Params,
    ):
        self.doc_ids = doc_ids
        self.term_frequencies = term_frequencies
        self.doc_lengths = doc_lengths
        self.avg_doc_length = float(doc_lengths.mean())
        self.doc_freq = doc_freq
        self.params = params
        self._position = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        self._idf = _idf_table(doc_freq, len(doc_ids), params)

        # W: the score contribution of each (term, document) pair, one row
        # per term in lexicographic order, zero where the term is absent
        self.terms = tuple(sorted(doc_freq))
        self._row = {term: i for i, term in enumerate(self.terms)}
        rows = np.array([self._row[term] for tf_map in term_frequencies for term in tf_map])
        cols = np.repeat(np.arange(len(doc_ids)), [len(tf_map) for tf_map in term_frequencies])
        tf = np.fromiter(
            chain.from_iterable(tf_map.values() for tf_map in term_frequencies),
            dtype=float,
            count=len(rows),
        )
        idf = np.array([self._idf[term] for term in self.terms])
        norm = params.k1 * (1.0 - params.b + params.b * doc_lengths / self.avg_doc_length)
        values = idf[rows] * tf * (params.k1 + 1.0) / (tf + norm[cols])
        self.weights = sparse.csr_matrix(
            (values, (rows, cols)), shape=(len(self.terms), len(doc_ids))
        )

    def __len__(self) -> int:
        return len(self.doc_ids)

    def position(self, doc_id: str) -> int:
        try:
            return self._position[doc_id]
        except KeyError:
            raise ValueError(f"unknown doc_id {doc_id!r}") from None

    def idf(self, term: str) -> float:
        return self._idf.get(term, 0.0)


def _idf_table(doc_freq: dict[str, int], n_docs: int, params: Bm25Params) -> dict[str, float]:
    if params.idf_variant == "nonnegative":
        return {
            term: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for term, df in doc_freq.items()
        }
    raw = {
        term: math.log((n_docs - df + 0.5) / (df + 0.5)) for term, df in doc_freq.items()
    }
    positive = [v for v in raw.values() if v > 0.0]
    floor = params.epsilon * (sum(positive) / len(positive)) if positive else 0.0
    return {term: (v if v >= 0.0 else floor) for term, v in raw.items()}


def build_index(
    docs: Sequence[tuple[str, Sequence[str]]], params: Bm25Params | None = None
) -> Bm25Index:
    """Build the index from (doc_id, tokens) pairs.

    Every document must contribute at least one token; ids must be unique.
    """
    if not docs:
        raise ValueError("cannot build a BM25 index over an empty document set")
    params = params or Bm25Params()

    doc_ids = []
    term_frequencies = []
    lengths = []
    doc_freq: Counter = Counter()
    seen = set()
    for doc_id, tokens in docs:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        if not tokens:
            raise ValueError(f"document {doc_id!r} has zero tokens")
        seen.add(doc_id)
        tf = dict(Counter(tokens))
        doc_ids.append(doc_id)
        term_frequencies.append(tf)
        lengths.append(len(tokens))
        doc_freq.update(tf.keys())

    return Bm25Index(
        tuple(doc_ids),
        tuple(term_frequencies),
        np.asarray(lengths, dtype=float),
        dict(doc_freq),
        params,
    )


def query_matrix(index: Bm25Index, queries: Sequence[Sequence[str]]) -> sparse.csr_matrix:
    """Binary queries x terms matrix over the index's term rows.

    Each row stores its columns ascending, which is lexicographic term order;
    a sparse product with ``index.weights`` adds each document's per-term
    contributions in that stored order, the order :func:`score` adds them.
    """
    row_of = index._row
    indices: list[int] = []
    indptr = [0]
    for query in queries:
        indices.extend(sorted({row_of[term] for term in set(query) if term in row_of}))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(queries), len(index.terms))
    )


def score(index: Bm25Index, query: Sequence[str], doc_id: str) -> float:
    """BM25 score of one document for a free-text query.

    Only distinct query terms contribute; repeated query terms count once.
    """
    pos = index.position(doc_id)
    total = 0.0
    for term in sorted(set(query)):
        row = index._row.get(term)
        if row is not None:
            total += index.weights[row, pos]
    return float(total)


def scores_for_all(index: Bm25Index, query: Sequence[str]) -> np.ndarray:
    """Scores of every indexed document, in index order.

    Accumulates the same per-term contributions as :func:`score`, in the same
    lexicographic term order, so both paths agree bit for bit: the binary
    query row times ``W`` visits the rows of ``W`` in order, and a term the
    query lacks adds an exact zero.
    """
    query_row = np.zeros(len(index.terms))
    query_row[[index._row[term] for term in set(query) if term in index._row]] = 1.0
    return index.weights.T @ query_row


def rank(index: Bm25Index, query: Sequence[str]) -> list[tuple[str, float]]:
    """All documents ordered by descending score, ties by ascending doc_id."""
    totals = scores_for_all(index, query)
    order = sorted(range(len(index)), key=lambda i: (-totals[i], index.doc_ids[i]))
    return [(index.doc_ids[i], float(totals[i])) for i in order]
