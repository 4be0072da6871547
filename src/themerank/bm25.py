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
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy import sparse

from .textproc import term_counts

IDF_VARIANTS = ("nonnegative", "epsilon_floor")


@dataclass(frozen=True)
class Bm25Params:
    """Tunable scoring parameters.

    Finite ``k1 >= 0`` controls term-frequency saturation, ``b`` in [0, 1]
    controls document-length normalization, finite ``epsilon > 0`` only
    matters under the ``epsilon_floor`` idf variant.
    """

    k1: float = 1.5
    b: float = 0.75
    idf_variant: str = "nonnegative"
    epsilon: float = 0.25

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.idf_variant not in IDF_VARIANTS:
            raise ValueError(f"idf_variant must be one of {IDF_VARIANTS}, got {self.idf_variant!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


class Bm25Index:
    """BM25 weights over a document set, built by build_index from the
    documents' ``terms`` and docs x terms ``counts`` (see ``term_counts``).

    ``weights`` (W) holds the score contribution of each (term, document)
    pair, one row per term in lexicographic order, zero where the term is
    absent; ``weights_t`` is its transpose and ``row_of`` maps a term to its
    row. A term's document frequency is its count column's non-zeros and a
    document's length its count row's sum.
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
        self.row_of = {term: i for i, term in enumerate(terms)}
        self.idfs = _idf(counts.getnnz(axis=0), len(doc_ids), params)

        lengths = np.asarray(counts.sum(axis=1)).ravel()
        tf = counts.data
        docs = np.repeat(np.arange(len(doc_ids)), np.diff(counts.indptr))
        with np.errstate(over="ignore", invalid="ignore"):
            norm = params.k1 * (1.0 - params.b + params.b * lengths / lengths.mean())
            values = self.idfs[counts.indices] * tf * (params.k1 + 1.0) / (tf + norm[docs])
            # weights are >= 0, so a document's total bounds every score it gets
            totals = np.bincount(docs, weights=values, minlength=len(doc_ids))
        if not np.isfinite(totals).all():
            raise ValueError(
                f"BM25 scores overflow under k1={params.k1} and epsilon={params.epsilon}"
            )
        self.weights = sparse.csr_matrix(
            (values, counts.indices, counts.indptr), shape=counts.shape
        ).T.tocsr()
        self.weights_t = self.weights.T


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


def query_rows(index: Bm25Index, terms: Sequence[str], counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """Binary queries x index-terms matrix from a queries x ``terms`` count
    matrix (see ``term_counts``): each column relabelled to its term's row of
    ``W``, or dropped if the index lacks the term. Both vocabularies are
    sorted, so rows keep lexicographic term order, which products keep."""
    term_rows = np.fromiter(map(index.row_of.get, terms, repeat(-1)), np.intp, len(terms))
    entry_rows = term_rows[counts.indices]
    kept = entry_rows >= 0
    indptr = np.concatenate(([0], np.cumsum(kept)))[counts.indptr]
    shape = (counts.shape[0], len(index.terms))
    return sparse.csr_matrix((np.ones(indptr[-1]), entry_rows[kept], indptr), shape=shape)


def scores_for_rows(index: Bm25Index, rows: Sequence[int] | np.ndarray) -> np.ndarray:
    """Scores of every indexed document, in index order, for the binary query
    of the terms at ``rows`` of ``W``. The query row times ``W`` adds each
    document's per-term contributions in lexicographic term order, and a term
    the query lacks adds an exact zero: equal term sets score equal bits."""
    query_row = np.zeros(len(index.terms))
    query_row[rows] = 1.0
    return index.weights_t @ query_row


def scores_for_all(index: Bm25Index, query: Sequence[str]) -> np.ndarray:
    """``scores_for_rows`` of a free-text query's distinct indexed terms."""
    return scores_for_rows(index, [index.row_of[t] for t in set(query) if t in index.row_of])
