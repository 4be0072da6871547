"""Independent brute-force reference implementations used only by tests.

Everything here is written from the documented formulas with plain loops and
dicts, deliberately sharing no code with the package under test. The BM25
index oracles read a built index's ``W`` and score it term by term, or with
one product per query set, the way the package did before it derived every
query from a term-count matrix.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter

import numpy as np
from scipy import sparse


# ---------------------------------------------------------------------------
# BM25


def bm25_idf_brute(all_docs: dict[str, list[str]], term: str, variant: str, epsilon: float) -> float:
    n = len(all_docs)
    df = sum(1 for tokens in all_docs.values() if term in tokens)
    if variant == "nonnegative":
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    raw = math.log((n - df + 0.5) / (df + 0.5))
    if raw >= 0.0:
        return raw
    positives = []
    for other in {t for tokens in all_docs.values() for t in tokens}:
        other_df = sum(1 for tokens in all_docs.values() if other in tokens)
        value = math.log((n - other_df + 0.5) / (other_df + 0.5))
        if value > 0.0:
            positives.append(value)
    if not positives:
        return 0.0
    return epsilon * (sum(positives) / len(positives))


def bm25_score_brute(
    all_docs: dict[str, list[str]],
    query: list[str],
    doc_id: str,
    k1: float = 1.5,
    b: float = 0.75,
    variant: str = "nonnegative",
    epsilon: float = 0.25,
) -> float:
    tokens = all_docs[doc_id]
    counts = Counter(tokens)
    dl = len(tokens)
    avgdl = sum(len(t) for t in all_docs.values()) / len(all_docs)
    total = 0.0
    for term in sorted(set(query)):
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        idf = bm25_idf_brute(all_docs, term, variant, epsilon)
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return total


def bm25_rank_brute(all_docs, query, **kwargs) -> list[str]:
    scored = [(doc_id, bm25_score_brute(all_docs, query, doc_id, **kwargs)) for doc_id in all_docs]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [doc_id for doc_id, _ in scored]


def bm25_index_score(index, query: list[str], doc_id: str) -> float:
    """BM25 score of one document for a free-text query: the rows of the
    index's ``W`` for the distinct query terms, added in lexicographic order."""
    if doc_id not in index.doc_ids:
        raise ValueError(f"unknown doc_id {doc_id!r}")
    pos = index.doc_ids.index(doc_id)
    row_of = {term: i for i, term in enumerate(index.terms)}
    total = 0.0
    for term in sorted(set(query)):
        row = row_of.get(term)
        if row is not None:
            total += index.weights[row, pos]
    return float(total)


def bm25_query_matrix(index, queries: list[list[str]]) -> sparse.csr_matrix:
    """Binary queries x terms matrix over the index's term rows, each row's
    columns ascending: lexicographic term order."""
    row_of = {term: i for i, term in enumerate(index.terms)}
    indices: list[int] = []
    indptr = [0]
    for query in queries:
        indices.extend(sorted({row_of[term] for term in set(query) if term in row_of}))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(queries), len(index.terms))
    )


def guidance_brute(sentences: list[list[str]], index) -> np.ndarray:
    """σ: each sentence's best BM25 score against every theme, from one
    product of the binary query matrix with ``W``. Weights are >= 0, so the
    row maximum over stored entries and implicit zeros is the maximum over
    all themes."""
    products = bm25_query_matrix(index, sentences) @ index.weights
    return products.max(axis=1).toarray().ravel()


# ---------------------------------------------------------------------------
# text processing: the readable removal patterns, the alternation and the
# per-character loop that the prefix-scannable rules, the prefix-trie
# stopword regex and the terminal-run segmentation replace


def stopword_regex_brute(words: frozenset[str]) -> re.Pattern:
    """Every stopword as one alternative, longest first, so the first
    alternative that matches at a position and passes the guard is the
    longest such word."""
    alternatives = "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))
    return re.compile(rf"(?<![^\W_])(?:{alternatives})(?![^\W_])", re.IGNORECASE)


# The default removal rules in their readable form, a word boundary as a
# leading \b, in the order they run. The package writes each so that re can
# jump to its first character; these say what the rules match.
READABLE_REMOVAL_PATTERNS = {
    "process_number": r"\b\d{7}-\d{2}\.\d{4}\.\d\.\d{2}\.\d{4}\b",
    "registry_number": r"\b\d{3}\.\d{3}\.\d{3}-\d{2}\b|\b\d{2}\.\d{3}\.\d{3}/\d{4}-\d{2}\b",
    "monetary_value": r"R\$\s*\d[\d.,]*",
    "digit_run": r"\b\d{4,}\b",
    # the trailing \b follows the street words only: after "Av." the next
    # character may be anything
    "address": r"\b(?:(?:Rua|Avenida|Travessa|Alameda|Praça|Rodovia)\b|Av\.)[^\n.!?…]*",
}


def remove_noise_brute(text: str, stopwords: frozenset[str]) -> str:
    """Noise removal under the default rules: the readable patterns in
    order, the stopword alternation, then every whitespace run to one space."""
    cleaned = unicodedata.normalize("NFC", text)
    for pattern in READABLE_REMOVAL_PATTERNS.values():
        cleaned = re.sub(pattern, " ", cleaned)
    if stopwords:
        cleaned = stopword_regex_brute(stopwords).sub(" ", cleaned)
    return re.sub(r"\s+", " ", cleaned).strip()


def segment_sentences_brute(text: str, abbreviations: frozenset[str]) -> list[str]:
    """Sentence texts, by visiting every character: split after a run of
    ``. ! ? …`` followed by whitespace and an uppercase letter or digit,
    unless the token carrying the run is a guarded abbreviation."""
    terminals = ".!?…"
    boundaries = []
    n = len(text)
    i = 0
    while i < n:
        if text[i] not in terminals:
            i += 1
            continue
        j = i + 1
        while j < n and text[j] in terminals:
            j += 1
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k > j and k < n and (text[k].isupper() or text[k].isdigit()):
            t = i
            while t > 0 and not text[t - 1].isspace():
                t -= 1
            token = unicodedata.normalize("NFC", text[t:j]).lower().rstrip(terminals)
            if token not in abbreviations:
                boundaries.append((j, k))
        i = j
    pieces = []
    start = 0
    for cut, resume in boundaries:
        pieces.append(text[start:cut])
        start = resume
    pieces.append(text[start:])
    return [piece.strip() for piece in pieces if piece.strip()]


def tokenize_brute(text: str) -> list[str]:
    """Tokens: the runs of letters and digits of the NFC-normalised,
    lowercased text; ``_`` and everything else separates."""
    return re.findall(r"[^\W_]+", unicodedata.normalize("NFC", text).lower())


# ---------------------------------------------------------------------------
# sentence graph


def sentence_similarity_brute(token_lists: list[list[str]]) -> list[list[float]]:
    n = len(token_lists)
    counters = [Counter(tokens) for tokens in token_lists]
    vocabulary = sorted({t for tokens in token_lists for t in tokens})
    df = {
        term: sum(1 for c in counters if term in c)
        for term in vocabulary
    }
    idf = {term: math.log(n / df[term]) + 1.0 for term in vocabulary}

    def norm(c: Counter) -> float:
        return math.sqrt(sum((c[t] * idf[t]) ** 2 for t in c))

    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if not counters[i] or not counters[j]:
                continue
            numerator = sum(
                counters[i][t] * counters[j][t] * idf[t] ** 2
                for t in vocabulary
                if t in counters[i] and t in counters[j]
            )
            matrix[i][j] = numerator / (norm(counters[i]) * norm(counters[j]))
    return matrix


def normalized_by_diagonal_product(counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """The unit-norm tf-idf rows of a count matrix through scipy's matrix
    operations: a copy scaled by idf, row norms from its elementwise square
    summed by row, then a diagonal scaling product, which leaves each row's
    columns in descending order."""
    n = counts.shape[0]
    matrix = counts.copy()
    idf = np.array([math.log(n / df) + 1.0 for df in matrix.getnnz(axis=0).tolist()])
    matrix.data *= idf[matrix.indices]

    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros(n), where=norms > 0)
    return sparse.diags(scale) @ matrix


def similarity_graph_rebuilt(token_lists: list[list[str]]) -> sparse.csr_matrix:
    """The sentence graph as it was built before it was left as the bare
    product: the same count matrix, idf scaling and normalized product,
    then a rebuild from the strict upper triangle, its transpose and a unit
    diagonal on the non-empty rows, clipped to [0, 1]."""
    n = len(token_lists)
    counters = [Counter(tokens) for tokens in token_lists]
    vocabulary = sorted({t for tokens in token_lists for t in tokens})
    column = {term: i for i, term in enumerate(vocabulary)}
    rows, cols, data = [], [], []
    for row, counter in enumerate(counters):
        for term, count in counter.items():
            rows.append(row)
            cols.append(column[term])
            data.append(float(count))
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, len(vocabulary)))
    normalized = normalized_by_diagonal_product(matrix)
    weights = (normalized @ normalized.T).tocsr()

    upper = sparse.triu(weights, k=1)
    diagonal = sparse.diags((np.diff(matrix.indptr) > 0).astype(float))
    weights = (upper + upper.T + diagonal).tocsr()
    weights.data = np.clip(weights.data, 0.0, 1.0)
    return weights


def degree_brute(weights, threshold: float) -> list[float]:
    n = len(weights)
    result = []
    for i in range(n):
        count = sum(1 for j in range(n) if j != i and weights[i][j] >= threshold)
        result.append(count / max(n - 1, 1))
    return result


def stationary_brute(weights, damping: float) -> np.ndarray:
    """Dense eigen-solve of the damped row-stochastic walk."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    row_sums = w.sum(axis=1)
    p = np.empty_like(w)
    for i in range(n):
        p[i] = w[i] / row_sums[i] if row_sums[i] > 0 else np.full(n, 1.0 / n)
    m = damping * p + (1.0 - damping) / n
    values, vectors = np.linalg.eig(m.T)
    lead = np.argmin(np.abs(values - 1.0))
    vector = np.real(vectors[:, lead])
    vector = np.abs(vector)
    return vector / vector.sum()


def continuous_centrality_transposed(
    graph, damping: float = 0.85, tolerance: float = 1e-8, max_iterations: int = 1000
) -> np.ndarray:
    """Continuous centrality over three n × n copies of the stored graph:
    its weights, their transpose converted back to CSR (rows in column
    order, since the graph is symmetric bit for bit) and the transition
    ``diags(1/rowsum) @ weights``. The package walks ``N Nᵀ`` without
    making the graph; its γ differs from this one only in rounding."""
    n = graph.n
    weights = graph.weights.T.tocsr()
    row_sums = np.asarray(weights.sum(axis=1)).ravel()
    inv = np.divide(1.0, row_sums, out=np.zeros(n), where=row_sums > 0)
    transition = (sparse.diags(inv) @ weights).tocsr()
    zero_rows = row_sums <= 0
    x = np.full(n, 1.0 / n)
    uniform = (1.0 - damping) / n
    for _ in range(max_iterations):
        nxt = damping * (x @ transition + x[zero_rows].sum() / n) + uniform
        if np.abs(nxt - x).sum() < tolerance:
            return nxt / nxt.sum()
        x = nxt
    raise RuntimeError(f"power iteration did not converge in {max_iterations} iterations")


# ---------------------------------------------------------------------------
# guided selection


def guided_selection_brute(
    token_lists: list[list[str]],
    theme_docs: dict[str, list[str]],
    alpha: float,
    beta: float,
    size: int,
    threshold: float = 0.1,
    k1: float = 1.5,
    b: float = 0.75,
) -> list[int]:
    """Selection order under the combined centrality/guidance score."""
    weights = sentence_similarity_brute(token_lists)
    gamma = degree_brute(weights, threshold)
    sigma = []
    for tokens in token_lists:
        if not tokens:
            sigma.append(0.0)
            continue
        best = max(
            bm25_score_brute(theme_docs, tokens, theme_id, k1=k1, b=b)
            for theme_id in theme_docs
        )
        sigma.append(best)

    def normalize(values):
        peak = max(values) if values else 0.0
        return [v / peak for v in values] if peak > 0 else list(values)

    gamma_hat = normalize(gamma)
    sigma_hat = normalize(sigma)
    combined = [alpha * g + beta * s for g, s in zip(gamma_hat, sigma_hat)]
    order = sorted(range(len(combined)), key=lambda i: (-combined[i], i))
    return order[: min(size, len(combined))]


def select_top_sorted(scores, size: int) -> list[int]:
    """The ``size`` highest scores by a keyed sort, ties by ascending index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[: min(size, len(scores))]


# ---------------------------------------------------------------------------
# retrieval metrics, on 0/1 relevance lists


def recall_brute(flags: list[int], k: int, total_relevant: int) -> float:
    return sum(flags[:k]) / total_relevant


def precision_brute(flags: list[int], k: int) -> float:
    return sum(flags[:k]) / k


def average_precision_brute(flags: list[int], k: int, total_relevant: int) -> float:
    total = 0.0
    for i in range(1, min(k, len(flags)) + 1):
        if flags[i - 1]:
            total += precision_brute(flags, i)
    return total / total_relevant


def ndcg_brute(flags: list[int], k: int, total_relevant: int) -> float:
    dcg = sum((2 ** flags[i - 1] - 1) / math.log2(i + 1) for i in range(1, min(k, len(flags)) + 1))
    ideal = [1] * total_relevant + [0] * max(0, k - total_relevant)
    idcg = sum((2 ** ideal[i - 1] - 1) / math.log2(i + 1) for i in range(1, k + 1))
    if idcg == 0:
        return 0.0
    return dcg / idcg
