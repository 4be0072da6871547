"""Scoring an appeal representation against every theme in the catalog.

Two routes: the representation's tokens as a BM25 query against a theme
index, or cosine similarity over vector representations. Vectors come either
from a precomputed embedding file or from the built-in TF-IDF vectorizer;
this package never runs an embedding model itself.

The theme side of each route is built once per catalog, so scoring one
appeal against every theme is one sparse or dense product.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .bm25 import Bm25Index, scores_for_all


@dataclass(frozen=True)
class EmbeddingTable:
    """Fixed-dimension vectors keyed by document id."""

    dimension: int
    vectors: dict[str, np.ndarray]


def score_by_bm25(summary_tokens: Sequence[str], theme_index: Bm25Index) -> np.ndarray:
    """Score the representation as a BM25 query against every indexed theme,
    in index order."""
    return scores_for_all(theme_index, summary_tokens)


def _power_of_two_scaled(vectors: np.ndarray) -> np.ndarray:
    """Each vector (last axis) times the power of two that brings its largest
    ``abs`` into [0.5, 1): exact, so cosines keep their bits, but with no
    overflow or underflow of norms from components like 1e200 or 1e-200."""
    peak = np.abs(vectors).max(axis=-1, keepdims=True)
    return np.ldexp(vectors, -np.frexp(peak)[1])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two non-zero vectors of equal dimension."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not u.any() or not v.any():
        raise ValueError("cosine is undefined for zero-norm vectors")
    u, v = _power_of_two_scaled(u), _power_of_two_scaled(v)
    value = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return min(1.0, max(-1.0, value))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse an embedding file.

    Format: a header line ``id<TAB><dimension>`` followed by one line per
    vector, ``id<TAB>v1,v2,...``. All vectors must match the declared
    dimension, every component must be finite and ids must be unique.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"embedding file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        parts = header.split("\t")
        if len(parts) != 2 or parts[0] != "id":
            raise ValueError(f"{path}: bad header {header!r}, expected 'id<TAB><dimension>'")
        try:
            dimension = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: bad dimension {parts[1]!r} in header") from None
        if dimension < 1:
            raise ValueError(f"{path}: dimension must be >= 1, got {dimension}")

        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                doc_id, values = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 'id<TAB>v1,v2,...'") from None
            if doc_id in vectors:
                raise ValueError(f"{path}: line {lineno}: duplicate id {doc_id!r}")
            try:
                vector = np.array([float(x) for x in values.split(",")])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric component") from None
            if not np.isfinite(vector).all():
                raise ValueError(f"{path}: line {lineno}: non-finite component")
            if vector.size != dimension:
                raise ValueError(
                    f"{path}: line {lineno}: vector has {vector.size} components, "
                    f"expected {dimension}"
                )
            vectors[doc_id] = vector

    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    if not any(v.any() for v in vectors.values()):
        raise ValueError(f"{path}: every vector has zero norm")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def tfidf_vectors(texts: Sequence[tuple[str, Sequence[str]]]) -> EmbeddingTable:
    """TF-IDF vectors over a shared vocabulary built from all inputs.

    Component for term ``w`` is ``tf(w, text) * (ln(N / df(w)) + 1)``; the
    dimension equals the vocabulary size.
    """
    if not texts:
        raise ValueError("tfidf_vectors requires at least one text")
    counts: dict[str, Counter] = {}
    for doc_id, tokens in texts:
        if doc_id in counts:
            raise ValueError(f"duplicate id {doc_id!r}")
        counts[doc_id] = Counter(tokens)

    df: Counter = Counter()
    for c in counts.values():
        df.update(c.keys())
    if not df:
        raise ValueError("all texts are empty")

    vocab = {term: i for i, term in enumerate(sorted(df))}
    n_texts = len(counts)
    idf = np.empty(len(vocab))
    for term, col in vocab.items():
        idf[col] = math.log(n_texts / df[term]) + 1.0

    vectors = {}
    for doc_id, c in counts.items():
        vector = np.zeros(len(vocab))
        for term, tf in c.items():
            col = vocab[term]
            vector[col] = tf * idf[col]
        vectors[doc_id] = vector
    return EmbeddingTable(dimension=len(vocab), vectors=vectors)


class TfidfCosine:
    """TF-IDF cosine of a query against every theme, theme side built once
    from the themes' vocabulary and count matrix (see ``term_counts``).

    Equal to ``cosine`` over ``tfidf_vectors([query, *themes])`` to rounding:
    df counts the themes plus the query, ``N = len(themes) + 1`` and
    ``idf = ln(N / df) + 1``. The query adds 1 to df of its own terms only,
    so a theme's squared norm is a base over the theme-only idf, corrected
    on the query's terms, and its dot product with the query is one
    mat-vec over those terms.
    """

    def __init__(self, terms: Sequence[str], counts: sparse.csr_matrix):
        self.vocab = {term: i for i, term in enumerate(terms)}
        self.tf = counts
        self.tf_squared = counts.power(2)

        n = counts.shape[0] + 1
        theme_df = counts.getnnz(axis=0).astype(float)
        idf_themes = np.log(n / theme_df) + 1.0  # terms the query lacks
        self.idf_shared = np.log(n / (theme_df + 1.0)) + 1.0  # terms it holds
        self.idf_query_only = math.log(n) + 1.0
        self.idf_shift = self.idf_shared**2 - idf_themes**2
        self.base_norms = self.tf_squared @ idf_themes**2

    def scores(self, query: Sequence[str]) -> np.ndarray:
        """Cosine of a non-empty query against every theme, in theme order;
        clamped to [-1, 1]."""
        counts = Counter(query)
        cols = np.fromiter(map(self.vocab.get, counts, repeat(-1)), dtype=np.intp, count=len(counts))
        tf = np.fromiter(counts.values(), dtype=float, count=len(counts))
        known = cols >= 0
        cols, query_only = cols[known], tf[~known]
        weighted = tf[known] * self.idf_shared[cols]
        query_norm = weighted @ weighted + (query_only @ query_only) * self.idf_query_only**2

        step = np.zeros(len(self.vocab))
        step[cols] = weighted * self.idf_shared[cols]
        dots = self.tf @ step
        step[:] = 0.0
        step[cols] = self.idf_shift[cols]
        theme_norms = self.base_norms + self.tf_squared @ step
        return np.clip(dots / (math.sqrt(query_norm) * np.sqrt(theme_norms)), -1.0, 1.0)


class EmbeddingCosine:
    """Cosine of an embedding against every theme's, theme side built once.

    The theme vectors are stacked in catalog order, each scaled by a power
    of two (see ``_power_of_two_scaled``), with their norms. A catalog with
    a theme that has no vector, or an all-zero one, cannot be scored:
    :meth:`scores` names the first such theme in catalog order.
    """

    def __init__(self, table: EmbeddingTable, theme_ids: Sequence[str], source: str):
        self.table = table
        self.source = source
        self.unusable = None
        self.matrix = np.zeros((len(theme_ids), table.dimension))
        for row, theme_id in enumerate(theme_ids):
            vector = table.vectors.get(theme_id)
            if vector is None:
                self.unusable = f"theme {theme_id!r}: no embedding in {source}"
                break
            if not vector.any():
                self.unusable = f"theme {theme_id!r}: cosine is undefined for zero-norm vectors"
                break
            self.matrix[row] = vector
        self.matrix = _power_of_two_scaled(self.matrix)
        self.norms = np.linalg.norm(self.matrix, axis=1)

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Cosine against every theme, in catalog order; clamped to [-1, 1]."""
        if self.unusable is not None:
            raise ValueError(self.unusable)
        if not query.any():
            raise ValueError(f"embedding in {self.source} has zero norm")
        query = _power_of_two_scaled(query)
        norm = np.linalg.norm(query)
        return np.clip(self.matrix @ query / (self.norms * norm), -1.0, 1.0)
