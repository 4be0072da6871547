"""Okapi-style BM25 scoring over an immutable index of per-term weights.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .textproc import term_counts

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
    """BM25 weights over a document set, built by build_index from the
    documents' ``terms`` and docs x terms ``counts`` (see ``term_counts``).

    ``weights`` (W) holds the score contribution of each (term, document)
    pair, one row per term in lexicographic order, zero where the term is
    absent. A term's document frequency is its count column's non-zeros and
    a document's length its count row's sum.
    """

    def __init__(
        self,
        doc_ids: tuple[str, ...],
        terms: tuple[str, ...],
        counts: sparse.csr_matrix,
        params: Bm25Params,
    ):
        self.doc_ids = doc_ids
        self.terms = terms
        self.counts = counts
        self.params = params
        self._position = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        self._row = {term: i for i, term in enumerate(terms)}
        self.idfs = _idf(counts.getnnz(axis=0), len(doc_ids), params)

        lengths = np.asarray(counts.sum(axis=1)).ravel()
        norm = params.k1 * (1.0 - params.b + params.b * lengths / lengths.mean())
        tf = counts.data
        docs = np.repeat(np.arange(len(doc_ids)), np.diff(counts.indptr))
        values = self.idfs[counts.indices] * tf * (params.k1 + 1.0) / (tf + norm[docs])
        self.weights = sparse.csr_matrix(
            (values, counts.indices, counts.indptr), shape=counts.shape
        ).T.tocsr()

    def __len__(self) -> int:
        return len(self.doc_ids)

    def position(self, doc_id: str) -> int:
        try:
            return self._position[doc_id]
        except KeyError:
            raise ValueError(f"unknown doc_id {doc_id!r}") from None

    def idf(self, term: str) -> float:
        row = self._row.get(term)
        return 0.0 if row is None else float(self.idfs[row])


def _idf(doc_freq: np.ndarray, n_docs: int, params: Bm25Params) -> np.ndarray:
    """Each term's idf on ``math.log``, as the transcribed formula has it.
    The epsilon floor's mean is summed with ``math.fsum``, which does not
    depend on term order."""
    if params.idf_variant == "nonnegative":
        return np.array(
            [math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)) for df in doc_freq.tolist()]
        )
    raw = np.array([math.log((n_docs - df + 0.5) / (df + 0.5)) for df in doc_freq.tolist()])
    positive = raw[raw > 0.0]
    floor = params.epsilon * (math.fsum(positive) / len(positive)) if len(positive) else 0.0
    return np.where(raw >= 0.0, raw, floor)


def build_index(
    docs: Sequence[tuple[str, Sequence[str]]], params: Bm25Params | None = None
) -> Bm25Index:
    """Build the index from (doc_id, tokens) pairs.

    Every document must contribute at least one token; ids must be unique.
    """
    if not docs:
        raise ValueError("cannot build a BM25 index over an empty document set")
    seen = set()
    for doc_id, tokens in docs:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        if not tokens:
            raise ValueError(f"document {doc_id!r} has zero tokens")
        seen.add(doc_id)
    terms, counts = term_counts([tokens for _, tokens in docs])
    return Bm25Index(tuple(doc_id for doc_id, _ in docs), terms, counts, params or Bm25Params())


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

