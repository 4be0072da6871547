"""Sentence-graph extractive summarization with optional theme guidance.

A document's sentences form a graph weighted by idf-modified cosine
similarity. A summary ranks sentences by graph centrality alone, unless it is
given a theme index: then it is guided, blending that centrality with how
strongly each sentence matches the theme catalog under BM25, using two
weighting factors, and picks the highest combined scores.

A summary is an analysis and a selection. The analysis (token lists,
centrality, guidance) depends only on the document, the graph settings and
the theme index; the selection (size and weights) is cheap, so summaries of
several sizes and weights can share one analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .bm25 import Bm25Index, query_matrix
from .textproc import Sentence, term_counts, tokenize

CENTRALITY_VARIANTS = ("degree", "continuous")


@dataclass(frozen=True)
class SentenceGraph:
    """Symmetric sentence-similarity weights with the edge threshold."""

    n: int
    weights: sparse.csr_matrix
    threshold: float


@dataclass(frozen=True)
class SummaryConfig:
    """Summarizer knobs: size, the centrality/guidance weighting and the graph."""

    size: int = 15
    alpha: float = 1.0
    beta: float = 1.0
    centrality_variant: str = "degree"
    threshold: float = 0.1
    damping: float = 0.85
    tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.centrality_variant not in CENTRALITY_VARIANTS:
            raise ValueError(
                f"centrality_variant must be one of {CENTRALITY_VARIANTS}, "
                f"got {self.centrality_variant!r}"
            )
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")

    @property
    def graph_settings(self) -> tuple:
        """The knobs centrality depends on: summaries that agree here share γ."""
        return (
            self.centrality_variant,
            self.threshold,
            self.damping,
            self.tolerance,
            self.max_iterations,
        )


@dataclass(frozen=True)
class Summary:
    """Selected sentence indices (document order), their selection order and text."""

    indices: tuple[int, ...]
    order: tuple[int, ...]
    text: str


def similarity_matrix(
    sentences: Sequence[Sequence[str]], threshold: float = 0.1
) -> SentenceGraph:
    """Idf-modified cosine similarity between every pair of token sequences.

    Entry (i, j) is ``sum_w tf(w,i)*tf(w,j)*idf(w)^2 / (|i| * |j|)`` with
    ``idf(w) = ln(n / df(w)) + 1`` computed over this document's own
    sentences. Empty sentences get all-zero rows, the others a unit diagonal.
    The weights are the product of the row-normalized matrix with its
    transpose, rows unsorted as the product leaves them; (i, j) and (j, i)
    add the same terms in the same order, so they are equal bit for bit.
    """
    n = len(sentences)
    if n < 1:
        raise ValueError("similarity_matrix requires at least one sentence")
    terms, matrix = term_counts(sentences)
    if not terms:
        raise ValueError("all sentences are empty")
    dfs, df_of_term = np.unique(matrix.getnnz(axis=0), return_inverse=True)
    idf = np.array([math.log(n / df) + 1.0 for df in dfs.tolist()])[df_of_term]
    matrix.data *= idf[matrix.indices]

    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros(n), where=norms > 0)
    normalized = sparse.diags(scale) @ matrix
    weights = (normalized @ normalized.T).tocsr()

    # every non-empty row stores its diagonal: its squares sum to ~1, never 0
    np.clip(weights.data, 0.0, 1.0, out=weights.data)
    weights.data[weights.indices == _entry_rows(weights)] = 1.0
    return SentenceGraph(n=n, weights=weights, threshold=threshold)


def _entry_rows(matrix: sparse.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(matrix.shape[0], dtype=matrix.indices.dtype), np.diff(matrix.indptr))


def degree_centrality(graph: SentenceGraph) -> np.ndarray:
    """Fraction of other sentences whose similarity clears the threshold."""
    n = graph.n
    denom = max(n - 1, 1)
    if graph.threshold <= 0.0:
        # every pair satisfies weight >= 0, so all sentences reach full degree
        return np.full(n, (n - 1) / denom, dtype=float)

    weights, rows = graph.weights, _entry_rows(graph.weights)
    mask = (weights.data >= graph.threshold) & (weights.indices != rows)
    degrees = np.bincount(rows[mask], minlength=n).astype(float)
    return degrees / denom


def continuous_centrality(
    graph: SentenceGraph,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 1000,
) -> np.ndarray:
    """Stationary distribution of the row-normalized similarity walk.

    Rows are normalized to transition probabilities (all-zero rows become
    uniform), mixed with the uniform distribution at rate ``1 - damping``,
    and iterated until the L1 change drops below ``tolerance``. Each row is
    read in column order, whatever order the graph stores it in: the graph
    is symmetric bit for bit, so its transpose converted back to CSR holds
    the same rows with their columns ascending.
    """
    n = graph.n
    weights = graph.weights.T.tocsr()
    row_sums = np.asarray(weights.sum(axis=1)).ravel()
    if not np.any(row_sums > 0):
        raise ValueError("graph has no positive row sums")

    inv = np.divide(1.0, row_sums, out=np.zeros(n), where=row_sums > 0)
    transition = (sparse.diags(inv) @ weights).tocsr()
    zero_rows = row_sums <= 0

    x = np.full(n, 1.0 / n)
    uniform = (1.0 - damping) / n
    for _ in range(max_iterations):
        nxt = damping * (x @ transition + x[zero_rows].sum() / n) + uniform
        if np.abs(nxt - x).sum() < tolerance:
            x = nxt
            break
        x = nxt
    else:
        raise RuntimeError(f"power iteration did not converge in {max_iterations} iterations")
    return x / x.sum()


def centrality(graph: SentenceGraph, config: SummaryConfig) -> np.ndarray:
    if config.centrality_variant == "continuous":
        return continuous_centrality(
            graph, config.damping, config.tolerance, config.max_iterations
        )
    return degree_centrality(graph)


def guidance_scores(
    sentences: Sequence[Sequence[str]], theme_index: Bm25Index
) -> np.ndarray:
    """Best BM25 score of each sentence used as a query against every theme.

    One sparse product scores every sentence against every theme, adding
    the terms in the order ``scores_for_all`` does, so σ equals the
    per-sentence maxima bit for bit. Weights are >= 0, so the row maximum
    over stored entries and implicit zeros is the maximum over all themes.
    """
    products = query_matrix(theme_index, sentences) @ theme_index.weights
    return products.max(axis=1).toarray().ravel()


def _max_normalize(values: np.ndarray) -> np.ndarray:
    peak = values.max() if values.size else 0.0
    return values / peak if peak > 0 else values.copy()


def combined_scores(
    gamma: np.ndarray, sigma: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Weighted blend of max-normalized centrality and guidance scores."""
    if len(gamma) != len(sigma):
        raise ValueError(
            f"length mismatch: {len(gamma)} centrality vs {len(sigma)} guidance scores"
        )
    if alpha + beta <= 0:
        raise ValueError("alpha + beta must be > 0")
    return alpha * _max_normalize(gamma) + beta * _max_normalize(sigma)


def select_top(scores: np.ndarray, size: int) -> list[int]:
    """Indices of the ``size`` highest scores, ties broken by ascending index."""
    return np.argsort(-np.asarray(scores), kind="stable")[:size].tolist()


class SentenceAnalysis:
    """What every summary of one document shares: its sentences, their token
    lists and, computed on first use, the centrality γ under each graph
    setting and the guidance σ against the last theme index asked for."""

    def __init__(self, sentences: Sequence[Sentence]):
        self.sentences = tuple(sentences)
        self.tokens = [tokenize(s.text) for s in self.sentences]
        self._gamma: dict[tuple, np.ndarray] = {}
        self._sigma: tuple[Bm25Index, np.ndarray] | None = None

    def gamma(self, config: SummaryConfig) -> np.ndarray:
        key = config.graph_settings
        if key not in self._gamma:
            graph = similarity_matrix(self.tokens, threshold=config.threshold)
            self._gamma[key] = centrality(graph, config)
        return self._gamma[key]

    def sigma(self, theme_index: Bm25Index) -> np.ndarray:
        if self._sigma is None or self._sigma[0] is not theme_index:
            self._sigma = (theme_index, guidance_scores(self.tokens, theme_index))
        return self._sigma[1]


def select(
    analysis: SentenceAnalysis,
    config: SummaryConfig,
    theme_index: Bm25Index | None = None,
) -> Summary:
    """The summary of ``config``'s size, drawn from an analysed document and
    re-joined in document order. It is guided exactly when ``theme_index``
    is given: then ``config``'s weights blend centrality with guidance."""
    scores = analysis.gamma(config)
    if theme_index is not None:
        scores = combined_scores(scores, analysis.sigma(theme_index), config.alpha, config.beta)

    order = select_top(scores, config.size)
    indices = sorted(order)
    text = " ".join(analysis.sentences[i].text for i in indices)
    return Summary(indices=tuple(indices), order=tuple(order), text=text)


def summarize(
    sentences: Sequence[Sentence],
    config: SummaryConfig,
    theme_index: Bm25Index | None = None,
) -> Summary:
    """Extract the highest-scoring sentences and re-join them in document order."""
    return select(SentenceAnalysis(sentences), config, theme_index)
