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
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from .bm25 import Bm25Index, query_rows, scores_for_rows
from .textproc import term_counts, tokenize

CENTRALITY_VARIANTS = ("degree", "continuous")


# rows of the sentence graph made at a time: the degree path holds one block,
# never the n × n graph. On a 2,019-sentence appeal its peak, building N
# included, is 5.5 MB at 256 rows and 3.5 MB at 128, but 128 rows split many
# body-sized appeals in two (cell-guided degree 0.88 against 0.71 ms per appeal).
ROW_BLOCK = 256


@dataclass(frozen=True)
class SentenceGraph:
    """Sentence similarity as the unit-norm tf-idf rows ``N``. The weights
    are ``N Nᵀ`` clipped to [0, 1] with a unit diagonal on the non-empty
    rows; ``blocks`` makes the product's upper triangle a block of rows at
    a time, and ``weights`` makes the whole graph on each read. ``N`` is
    assembled once on the count matrix's arrays, which are read, never
    copied or changed; its rows store their columns descending, the order
    every product of ``N`` adds its terms in, on which continuous γ's bits rest."""

    normalized: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.normalized.shape[0]

    def blocks(self) -> Iterator[tuple[int, sparse.csr_matrix]]:
        """Each block of up to ``ROW_BLOCK`` rows of ``N Nᵀ`` against the
        columns from its first row on, as (first row, CSR block whose column
        0 is that row): a new matrix each time, the caller's to change. Its
        entries are the full product's bit for bit, unclipped, stored in the
        order the product leaves them; a graph of one block is the product."""
        for start in range(0, self.n, ROW_BLOCK):
            below = self.normalized[start:] if start else self.normalized
            rows = below if below.shape[0] <= ROW_BLOCK else below[:ROW_BLOCK]
            # made in the yield, so this frame holds no block while the next is made
            yield start, rows @ below.T

    @property
    def weights(self) -> sparse.csr_matrix:
        """The whole n × n graph, new on each read; the centralities never make it."""
        weights = self.normalized @ self.normalized.T
        np.clip(weights.data, 0.0, 1.0, out=weights.data)
        # every non-empty row stores its diagonal: its squares sum to ~1, never 0
        rows = np.repeat(np.arange(self.n, dtype=weights.indices.dtype), np.diff(weights.indptr))
        weights.data[weights.indices == rows] = 1.0
        return weights


def check_integer(name: str, value) -> None:
    """Refuse, naming the field, a value that cannot slice or count steps,
    and a bool, which can but is a switch, not a count."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SummaryConfig:
    """Summarizer knobs: size, the centrality/guidance weighting and the graph."""

    size: int = 15
    alpha: float = 1.0
    beta: float = 1.0
    centrality: str = "degree"
    threshold: float = 0.1
    damping: float = 0.85
    tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self):
        check_integer("size", self.size)
        check_integer("max_iterations", self.max_iterations)
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if not (self.alpha >= 0 and self.beta >= 0 and math.isfinite(self.alpha + self.beta)):
            # finite alpha + beta bounds every blended score, which is at most that sum
            raise ValueError(
                f"alpha and beta must be >= 0 with a finite sum, got {self.alpha} and {self.beta}"
            )
        if self.centrality not in CENTRALITY_VARIANTS:
            raise ValueError(
                f"centrality must be one of {CENTRALITY_VARIANTS}, got {self.centrality!r}"
            )
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    @property
    def graph_settings(self) -> tuple:
        """The knobs its centrality reads: summaries that agree here share γ."""
        if self.centrality == "degree":
            return (self.centrality, self.threshold)
        return (self.centrality, self.damping, self.tolerance, self.max_iterations)


def similarity_matrix(counts: sparse.csr_matrix) -> SentenceGraph:
    """Idf-modified cosine similarity between every pair of sentences, from
    their ``term_counts`` matrix, one row per sentence.

    Entry (i, j) is ``sum_w tf(w,i)*tf(w,j)*idf(w)^2 / (|i| * |j|)`` with
    ``idf(w) = ln(n / df(w)) + 1`` computed over this document's own
    sentences. Empty sentences get all-zero rows, the others a unit diagonal.
    The weights are the product of the row-normalized matrix with its
    transpose, rows unsorted as the product leaves them; (i, j) and (j, i)
    add the same terms in the same order, so they are equal bit for bit.
    Only the normalized matrix ``N`` is built here (see ``SentenceGraph``),
    once, on the arrays of ``counts``, which is read, never copied or
    changed. Each row of ``N`` stores its columns descending, as a diagonal
    scaling product leaves them: every later ``N Nᵀ`` adds its terms in that
    order, and ascending rows would change continuous γ's bits.
    """
    n, width = counts.shape
    if n < 1:
        raise ValueError("similarity_matrix requires at least one sentence")
    if width == 0:
        raise ValueError("all sentences are empty")
    indices, indptr = counts.indices, counts.indptr
    dfs, df_of_term = np.unique(np.bincount(indices, minlength=width), return_inverse=True)
    idf = np.array([math.log(n / df) + 1.0 for df in dfs.tolist()])[df_of_term]
    weighted = counts.data * idf[indices]

    lengths = np.diff(indptr)
    filled = np.flatnonzero(lengths)
    # scipy's row sum over the non-empty rows, so the norms keep its bits
    scale = 1.0 / np.sqrt(np.add.reduceat(weighted * weighted, indptr[filled]))
    # position p of row [start, end) takes entry start + end - 1 - p: each row reversed
    order = np.repeat(indptr[:-1] + indptr[1:] - 1, lengths) - np.arange(indices.size)
    values = (np.repeat(scale, lengths[filled]) * weighted)[order]
    return SentenceGraph(sparse.csr_matrix((values, indices[order], indptr.copy()), shape=(n, width)))


def degree_centrality(graph: SentenceGraph, threshold: float) -> np.ndarray:
    """Fraction of other sentences whose similarity clears ``threshold``,
    counted from the upper-triangle blocks, so each pair is read once."""
    n = graph.n
    denom = max(n - 1, 1)
    if threshold <= 0.0:
        # every pair satisfies weight >= 0, so all sentences reach full degree
        return np.full(n, (n - 1) / denom, dtype=float)

    degrees = np.zeros(n)
    for start, block in graph.blocks():
        # each block is made for this loop alone: its entries become 1.0 where
        # they clear the threshold, else 0.0. The diagonal is taken off by
        # position, as a stored one may round below the threshold
        rows = block.shape[0]
        block.data[:] = block.data >= threshold
        degrees[start : start + rows] += block.sum(axis=1).A1 - block.diagonal()
        if block.shape[1] > rows:
            # right of the block's diagonal square, (i, j) is also j's edge:
            # the blocks of j's rows start past i, so never read (j, i)
            degrees[start + rows :] += block.sum(axis=0).A1[rows:]
        del block  # the next block is made without this one alive
    return degrees / denom


def continuous_centrality(graph: SentenceGraph, config: SummaryConfig) -> np.ndarray:
    """Stationary distribution of the row-normalized similarity walk.

    Rows are normalized to transition probabilities (all-zero rows become
    uniform), mixed with the uniform distribution at rate ``1 - damping``,
    and iterated until the L1 change drops below ``tolerance``, for at most
    ``max_iterations`` steps: all three from ``config``. The weights are
    read as ``N Nᵀ``, never made, so one step is two sparse mat-vecs (Erkan
    & Radev 2004); unclipped, with no unit diagonal set, they and γ differ
    from the stored graph's only in rounding.
    """
    n = graph.n
    rows, columns = graph.normalized, graph.normalized.T
    row_sums = rows @ (columns @ np.ones(n))
    if not np.any(row_sums > 0):
        raise ValueError("graph has no positive row sums")

    inv = np.divide(1.0, row_sums, out=np.zeros(n), where=row_sums > 0)
    zero_rows = row_sums <= 0

    damping, tolerance, max_iterations = config.damping, config.tolerance, config.max_iterations
    x = np.full(n, 1.0 / n)
    uniform = (1.0 - damping) / n
    for _ in range(max_iterations):
        nxt = damping * (rows @ (columns @ (x * inv)) + x[zero_rows].sum() / n) + uniform
        change = np.abs(nxt - x).sum()
        x = nxt
        if change < tolerance:
            return x / x.sum()
    last = f"last L1 change {change:.3g}, tolerance {tolerance:g}"
    raise RuntimeError(f"power iteration did not converge in {max_iterations} iterations: {last}")


def centrality(graph: SentenceGraph, config: SummaryConfig) -> np.ndarray:
    if config.centrality == "continuous":
        return continuous_centrality(graph, config)
    return degree_centrality(graph, config.threshold)


def guidance_scores(
    sentences: Sequence[Sequence[str]], theme_index: Bm25Index, queries: sparse.csr_matrix | None = None
) -> np.ndarray:
    """Best BM25 score of each sentence used as a query against every theme:
    one product of the sentences' binary ``query_rows`` (``queries``, if
    given) with ``W``, adding terms in the order ``scores_for_all`` does, so
    σ equals the per-sentence maxima bit for bit."""
    if queries is None:
        queries = query_rows(theme_index, *term_counts(sentences))
    return (queries @ theme_index.weights).toarray().max(axis=1)


def _max_normalize(values: np.ndarray) -> np.ndarray:
    peak = values.max() if values.size else 0.0
    return values / peak if peak > 0 else values.copy()


def combined_scores(
    gamma: np.ndarray, sigma: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Weighted blend of max-normalized centrality and guidance scores."""
    if alpha + beta <= 0:
        raise ValueError("alpha + beta must be > 0")
    return alpha * _max_normalize(gamma) + beta * _max_normalize(sigma)


def select_top(scores: np.ndarray, size: int) -> list[int]:
    """Indices of the ``size`` highest scores, ties broken by ascending index."""
    return np.argsort(-np.asarray(scores), kind="stable")[:size].tolist()


class SentenceAnalysis:
    """What every summary of one document shares: its sentences' token lists
    and one term-count matrix that feeds the graph, guidance and the BM25
    query of each summary; and on first use the graph, γ per setting its
    centrality reads, and one theme slot: the last theme index asked for,
    the binary queries against it and, once a guided summary asks, σ."""

    def __init__(self, sentences: Sequence[str]):
        self.tokens = [tokenize(text) for text in sentences]
        self.terms, self.counts = term_counts(self.tokens)
        self._gamma: dict[tuple, np.ndarray] = {}
        self._theme: tuple[Bm25Index, sparse.csr_matrix, np.ndarray | None] | None = None

    @cached_property
    def graph(self) -> SentenceGraph:
        return similarity_matrix(self.counts)

    def gamma(self, config: SummaryConfig) -> np.ndarray:
        key = config.graph_settings
        if key not in self._gamma:
            self._gamma[key] = centrality(self.graph, config)
        return self._gamma[key]

    def queries(self, theme_index: Bm25Index) -> sparse.csr_matrix:
        if self._theme is None or self._theme[0] is not theme_index:
            self._theme = (theme_index, query_rows(theme_index, self.terms, self.counts), None)
        return self._theme[1]

    def sigma(self, theme_index: Bm25Index) -> np.ndarray:
        queries = self.queries(theme_index)
        if self._theme[2] is None:
            self._theme = (theme_index, queries, guidance_scores(self.tokens, theme_index, queries))
        return self._theme[2]

    def bm25_scores(self, theme_index: Bm25Index, rows: Sequence[int]) -> np.ndarray:
        """Scores of the sentences at ``rows`` as one BM25 query, the union
        of their terms: ``scores_for_all`` of their tokens."""
        queries = self.queries(theme_index)
        chosen = np.zeros(len(self.tokens), dtype=bool)
        chosen[list(rows)] = True
        return scores_for_rows(theme_index, queries.indices[np.repeat(chosen, np.diff(queries.indptr))])


def summarize(
    analysis: SentenceAnalysis,
    config: SummaryConfig,
    theme_index: Bm25Index | None = None,
) -> tuple[int, ...]:
    """The rows of the summary of ``config``'s size, drawn from an analysed
    document, in selection order. It is guided exactly when ``theme_index``
    is given: then ``config``'s weights blend centrality with guidance."""
    scores = analysis.gamma(config)
    if theme_index is not None:
        scores = combined_scores(scores, analysis.sigma(theme_index), config.alpha, config.beta)

    return tuple(select_top(scores, config.size))
