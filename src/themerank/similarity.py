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


def score_by_bm25(summary_tokens: Sequence[str], theme_index: Bm25Index) -> dict[str, float]:
    """Score the representation as a BM25 query against every indexed theme."""
    totals = scores_for_all(theme_index, summary_tokens)
    return {doc_id: float(totals[i]) for i, doc_id in enumerate(theme_index.doc_ids)}


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two non-zero vectors of equal dimension."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for zero-norm vectors")
    value = float(np.dot(u, v) / (nu * nv))
    return min(1.0, max(-1.0, value))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse an embedding file.

    Format: a header line ``id<TAB><dimension>`` followed by one line per
    vector, ``id<TAB>v1,v2,...``. All vectors must match the declared
    dimension and ids must be unique.
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
            if vector.size != dimension:
                raise ValueError(
                    f"{path}: line {lineno}: vector has {vector.size} components, "
                    f"expected {dimension}"
                )
            vectors[doc_id] = vector

    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    if all(np.linalg.norm(v) == 0.0 for v in vectors.values()):
        raise ValueError(f"{path}: every vector has zero norm")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def write_embeddings(path: str | Path, table: EmbeddingTable) -> None:
    """Write a table in the format accepted by load_embeddings."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"id\t{table.dimension}\n")
        for doc_id, vector in table.vectors.items():
            values = ",".join(repr(float(x)) for x in vector)
            handle.write(f"{doc_id}\t{values}\n")


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
    """TF-IDF cosine of a query against every theme, theme side built once.

    Equal to ``cosine`` over ``tfidf_vectors([query, *themes])`` to rounding:
    df counts the themes plus the query, ``N = len(themes) + 1`` and
    ``idf = ln(N / df) + 1``. The query adds 1 to df of its own terms only,
    so a theme's squared norm is a base over the theme-only idf, corrected
    on the query's terms, and its dot product with the query is one
    mat-vec over those terms.
    """

    def __init__(self, themes: Sequence[Sequence[str]]):
        counts = [Counter(tokens) for tokens in themes]
        df: Counter = Counter()
        for c in counts:
            df.update(c.keys())
        self.vocab = {term: i for i, term in enumerate(sorted(df))}
        rows, cols, tfs = [], [], []
        for row, c in enumerate(counts):
            rows += [row] * len(c)
            cols += [self.vocab[term] for term in c]
            tfs += c.values()
        shape = (len(counts), len(self.vocab))
        self.tf = sparse.csr_matrix((np.asarray(tfs, dtype=float), (rows, cols)), shape=shape)
        self.tf_squared = self.tf.power(2)

        n = len(counts) + 1
        theme_df = np.array([df[term] for term in self.vocab], dtype=float)
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

    The theme vectors are stacked in catalog order with their norms. A
    catalog with a theme that has no vector, or a zero-norm one, cannot be
    scored: :meth:`scores` names the first such theme in catalog order.
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
            if np.linalg.norm(vector) == 0.0:
                self.unusable = f"theme {theme_id!r}: cosine is undefined for zero-norm vectors"
                break
            self.matrix[row] = vector
        self.norms = np.linalg.norm(self.matrix, axis=1)

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Cosine against every theme, in catalog order; clamped to [-1, 1]."""
        if self.unusable is not None:
            raise ValueError(self.unusable)
        norm = np.linalg.norm(query)
        if norm == 0.0:
            raise ValueError(f"embedding in {self.source} has zero norm")
        return np.clip(self.matrix @ query / (self.norms * norm), -1.0, 1.0)
