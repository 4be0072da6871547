from __future__ import annotations

import math
import random
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import (
    continuous_centrality_transposed,
    degree_brute,
    guidance_brute,
    guided_selection_brute,
    normalized_by_diagonal_product,
    select_top_sorted,
    sentence_similarity_brute,
    similarity_graph_rebuilt,
    stationary_brute,
)
from themerank.bm25 import Bm25Params, build_index, query_rows, scores_for_all
from themerank import lexrank
from themerank.lexrank import (
    SentenceAnalysis,
    SentenceGraph,
    SummaryConfig,
    combined_scores,
    continuous_centrality,
    degree_centrality,
    guidance_scores,
    select_top,
    similarity_matrix,
    summarize,
)
from themerank.textproc import term_counts


@dataclass(frozen=True)
class WeightsGraph:
    """A graph given by its weights, handed out as a new matrix on each read
    and in new blocks of ``lexrank.ROW_BLOCK`` rows against the columns from
    their first row on: what degree centrality reads of a ``SentenceGraph``."""

    matrix: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def weights(self) -> sparse.csr_matrix:
        return self.matrix.copy()

    def blocks(self):
        for start in range(0, self.n, lexrank.ROW_BLOCK):
            yield start, self.matrix[start : start + lexrank.ROW_BLOCK, start:]


def graph_from_dense(weights) -> WeightsGraph:
    return WeightsGraph(sparse.csr_matrix(np.asarray(weights, dtype=float)))


def graph_from_rows(rows) -> SentenceGraph:
    """The graph of non-negative tf-idf rows, scaled to unit norm (all-zero
    rows stay zero): what continuous centrality reads."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return SentenceGraph(sparse.csr_matrix(np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)))


def random_rows(rng: np.random.Generator, n: int, terms: int = 6) -> np.ndarray:
    """Tf-idf-like rows: non-negative, about half of the entries zero."""
    return rng.uniform(0.0, 1.0, (n, terms)) * (rng.uniform(0.0, 1.0, (n, terms)) < 0.5)


def assert_continuous_matches_oracles(graph, gamma, damping=0.85):
    """γ against the dense eigen-solve of the stored graph, to 1e-6, and
    against the power iteration over that graph, to 1e-12 of the largest γ."""
    assert np.allclose(gamma, stationary_brute(graph.weights.toarray(), damping), rtol=0, atol=1e-6)
    expected = continuous_centrality_transposed(graph, damping=damping)
    assert np.abs(gamma - expected).max() <= 1e-12 * expected.max()


def graph_of(token_lists):
    return similarity_matrix(term_counts(token_lists)[1])


def random_token_lists(rng: random.Random, max_sentences=10, vocab=12):
    words = [f"w{i}" for i in range(vocab)]
    n = rng.randint(2, max_sentences)
    return [[rng.choice(words) for _ in range(rng.randint(1, 10))] for _ in range(n)]


class TestSimilarityMatrix:
    def test_identical_sentences(self):
        graph = graph_of([["a", "b"], ["a", "b"]])
        assert graph.weights.toarray()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vocabulary(self):
        graph = graph_of([["a", "b"], ["c", "d"]])
        assert graph.weights.toarray()[0, 1] == 0.0

    def test_three_sentence_hand_values(self):
        graph = graph_of(
            [["réu", "pagou", "dívida"], ["réu", "negou", "dívida"], ["corte", "julgou", "caso"]]
        )
        dense = graph.weights.toarray()
        assert dense[0, 1] == pytest.approx(0.472859485454, abs=1e-10)
        assert dense[0, 2] == 0.0
        assert np.allclose(np.diag(dense), 1.0)

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(25):
            token_lists = random_token_lists(rng)
            dense = graph_of(token_lists).weights.toarray()
            expected = np.array(sentence_similarity_brute(token_lists))
            assert np.allclose(dense, expected, atol=1e-10)

    def test_symmetric_with_unit_diagonal(self):
        rng = random.Random(29)
        for _ in range(10):
            token_lists = random_token_lists(rng)
            dense = graph_of(token_lists).weights.toarray()
            assert np.array_equal(dense, dense.T)
            assert np.all(np.diag(dense) == 1.0)
            assert np.all((dense >= 0.0) & (dense <= 1.0))

    def test_empty_sentence_gets_zero_row(self):
        dense = graph_of([["a", "b"], [], ["a"]]).weights.toarray()
        assert np.all(dense[1] == 0.0) and np.all(dense[:, 1] == 0.0)

    def test_permutation_equivariant(self):
        rng = random.Random(31)
        token_lists = random_token_lists(rng, max_sentences=6)
        perm = list(range(len(token_lists)))
        rng.shuffle(perm)
        base = graph_of(token_lists).weights.toarray()
        shuffled = graph_of([token_lists[i] for i in perm]).weights.toarray()
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-12)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            graph_of([[], []])


ONE_BELOW = float(np.nextafter(1.0, 0.0))  # the largest valid threshold

sentence_token_lists = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=12),
    min_size=1,
    max_size=25,
)


def assert_same_csr(got, expected):
    assert got.nnz == expected.nnz
    assert got.data.tobytes() == expected.data.tobytes()
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.indptr, expected.indptr)


class TestNormalizedFromArrays:
    """``N`` assembled on the count matrix's arrays equals the diagonal
    scaling product it replaced byte for byte in stored order, not after
    ``sorted_indices()``: each row descending, the order every later
    product of ``N`` adds its terms in."""

    @settings(max_examples=300, deadline=None)
    @given(sentence_token_lists)
    @example([[], ["a", "b"], ["b"]])  # an empty row first
    @example([["a", "b"], ["b"], []])  # last
    @example([["a"], [], [], ["a", "c"]])  # between
    @example([["c", "a", "b"]])  # one sentence
    @example([["a", "b"], ["a"], ["c", "a"]])  # "a" in every sentence: its idf is exactly 1
    @example([["b", "b", "a", "b", "a"], ["a", "a"], ["c"]])  # repeated tokens
    @example([[], [], ["d", "a", "d"], []])  # a single non-empty row
    def test_equals_diagonal_product_bytes(self, token_lists):
        assume(any(token_lists))
        counts = term_counts(token_lists)[1]
        arrays = (counts.data, counts.indices, counts.indptr)
        before = [array.tobytes() for array in arrays]
        got = similarity_matrix(counts).normalized
        expected = normalized_by_diagonal_product(counts)
        assert got.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
            assert not any(np.shares_memory(mine, array) for array in arrays)
        assert [array.tobytes() for array in arrays] == before


def csr(rows, width):
    """CSR from rows of (column, value) pairs, stored in the order given."""
    pairs = [pair for row in rows for pair in row]
    return sparse.csr_matrix(
        (
            np.array([value for _, value in pairs], dtype=float),
            np.array([column for column, _ in pairs], dtype=np.int32),
            np.cumsum([0] + [len(row) for row in rows], dtype=np.int32),
        ),
        shape=(len(rows), width),
    )


@st.composite
def product_operands(draw):
    """A CSR pair ``a`` (m × k) and ``b`` (k × n): rows store distinct
    columns in drawn order, rows may be empty anywhere, and values include
    stored zeros and pairs that cancel to an exact 0."""

    def matrix(height, width):
        values = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 2.5, 1e-300])
        row = st.lists(st.integers(0, width - 1), unique=True, max_size=width).flatmap(
            lambda columns: st.tuples(*(st.tuples(st.just(c), values) for c in columns))
        )
        return csr(draw(st.lists(row, min_size=height, max_size=height)), width)

    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    return matrix(m, k), matrix(k, n)


def assert_same_product(got, expected):
    """Equal shape, and equal bytes and dtypes of the three arrays, in stored order."""
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


class TestProductWithoutSymbolicPass:
    """``lexrank._product`` runs scipy's numeric kernel alone, into buffers
    sized by an upper bound, and leaves what ``a @ b`` leaves, byte for byte
    in stored order: the kernel writes unchecked, so a bound short by one
    entry shows here as a wrong product or a crash."""

    @settings(max_examples=400, deadline=None)
    @given(product_operands())
    @example(  # empty rows first, between and last
        (
            csr([[], [(0, 1.0), (2, 0.5)], [], [(1, 2.0)], []], 3),
            csr([[(1, 1.0)], [(0, 0.5), (1, 1.0)], [(1, -0.25), (0, 3.0)]], 2),
        )
    )
    @example((csr([[(1, 1.0)], []], 2), csr([[(0, 1.0)], []], 1)))  # no pair meets: nnz 0
    @example((csr([[(0, 1.0), (1, 1.0)]], 2), csr([[(0, 1.0)], [(0, -1.0)]], 1)))  # one row, sums to 0
    @example(  # stored zeros on the right
        (csr([[(0, 1.0), (1, 2.0)], [(1, 1.0)]], 2), csr([[(1, 0.0), (0, 1.0)], [(0, 0.0)]], 2))
    )
    def test_equals_matmul(self, operands):
        a, b = operands
        assert_same_product(lexrank._product(a, b), a @ b)

    @settings(max_examples=150, deadline=None)
    @given(sentence_token_lists)
    @example([["a"], [], ["b"], []])  # blocks whose products hold no entry off the diagonal
    def test_blocks_equal_block_times_transpose(self, token_lists):
        # N[s:s+B] × N[s:]ᵀ at B = 3, as the degree blocks make it
        assume(any(token_lists))
        graph = similarity_matrix(term_counts(token_lists)[1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexrank, "ROW_BLOCK", 3)
            for start, block in graph.blocks():
                below = graph.normalized[start:]
                assert_same_product(block, below[:3] @ below.T)

    @settings(max_examples=150, deadline=None)
    @given(
        themes=st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12), min_size=1, max_size=8
        ),
        sentences=st.lists(st.lists(st.sampled_from("abcdefgxyz"), max_size=10), max_size=10),
        variant=st.sampled_from(["nonnegative", "epsilon_floor"]),
    )
    def test_queries_times_weights(self, themes, sentences, variant):
        index = build_index([(f"T{i}", t) for i, t in enumerate(themes)], Bm25Params(idf_variant=variant))
        queries = query_rows(index, *term_counts(sentences))
        assert_same_product(lexrank._product(queries, index.weights), queries @ index.weights)


class TestGraphMatchesRebuild:
    """The bare product, clipped with its diagonal written in place, equals
    the graph rebuilt from its upper triangle bit for bit, and so does the
    degree centrality computed on it; continuous γ, which never makes the
    graph, agrees with its oracles."""

    @settings(max_examples=300, deadline=None)
    @given(sentence_token_lists)
    @example([["a", "b", "a"]])
    @example([["a", "b"], ["a", "b"], ["b", "a"]])
    @example([[], ["a", "c"], [], ["c", "a", "a"]])
    def test_weights_bitwise(self, token_lists):
        assume(any(token_lists))
        graph = graph_of(token_lists)
        assert graph.n == len(token_lists)
        assert_same_csr(graph.weights.sorted_indices(), similarity_graph_rebuilt(token_lists))

    @settings(max_examples=200, deadline=None)
    @given(sentence_token_lists, st.sampled_from([0.05, 0.1, 0.3, 0.6]))
    @example([["a"]], 0.1)
    @example([["a", "b"], ["a", "b"], []], 0.1)
    def test_gamma_bitwise(self, token_lists, threshold):
        assume(any(token_lists))
        graph = graph_of(token_lists)
        rebuilt = WeightsGraph(similarity_graph_rebuilt(token_lists))
        degrees = degree_centrality(graph, threshold)
        assert degrees.tobytes() == degree_centrality(rebuilt, threshold).tobytes()
        assert_continuous_matches_oracles(rebuilt, continuous_centrality(graph, SummaryConfig()))


class TestContinuousMatrixFree:
    """Continuous γ from two sparse mat-vecs with ``N`` per step agrees with
    the walk over the stored graph and with its dense eigen-solve."""

    @settings(max_examples=200, deadline=None)
    @given(sentence_token_lists, st.sampled_from([0.5, 0.85]))
    @example([["a"]], 0.85)  # n = 1
    @example([[], ["a", "b"], [], ["b", "c"], ["a"], []], 0.85)  # zero rows
    def test_gamma_equals_oracles(self, token_lists, damping):
        assume(any(token_lists))
        graph = graph_of(token_lists)
        gamma = continuous_centrality(graph, SummaryConfig(damping=damping))
        assert_continuous_matches_oracles(graph, gamma, damping)


class TestGraphInBlocks:
    """Degree γ, its graph made three rows at a time so that most draws span
    several blocks, equals the degrees of the full rebuilt graph bit for
    bit; continuous γ, which reads no block, agrees with its oracles; and
    neither holds the full graph."""

    @settings(max_examples=300, deadline=None)
    @given(sentence_token_lists, st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.6, 0.99]))
    @example([["a"]], 0.1)  # n = 1
    @example([["a"], ["a"], ["a"], ["a"]], 0.1)  # row 3's diagonal lies in the second block
    @example([[], ["a", "b"], [], ["b", "c"], ["a"], []], 0.1)
    @example([["a", "b"], ["a", "c"], ["d"], ["b", "e"]], 0.99)  # above every off-diagonal weight
    def test_degree_equals_full_graph_count(self, token_lists, threshold):
        assume(any(token_lists))
        analysis = SentenceAnalysis([" ".join(tokens) for tokens in token_lists])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexrank, "ROW_BLOCK", 3)
            gamma = analysis.gamma(SummaryConfig(threshold=threshold))
        rebuilt = similarity_graph_rebuilt(token_lists).toarray().tolist()
        assert gamma.tobytes() == np.array(degree_brute(rebuilt, threshold)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        sentence_token_lists,
        st.sampled_from([0.05, 0.3, 0.6, ONE_BELOW, "weight"]),
        st.integers(0, 2**16),
    )
    @example([[], ["a"], ["a", "b"], [], ["b"], ["a"], []], 0.3, 0)  # empty rows at block edges
    @example([[], ["a"], ["a", "b"], [], ["b"], ["a"], []], "weight", 1)
    # rows 0 and 3 store a diagonal that rounds below ONE_BELOW: counting one
    # self-edge per non-empty row instead of masking the diagonal is wrong
    @example([["g", "e", "d", "d", "f"], ["b", "f"], ["g", "e"], ["f", "a", "f", "g"], ["b"]], ONE_BELOW, 0)
    def test_degree_reads_each_pair_once(self, token_lists, threshold, pick):
        assume(any(token_lists))
        rebuilt = similarity_graph_rebuilt(token_lists)
        dense = rebuilt.toarray()
        if threshold == "weight":
            # an exact off-diagonal weight, so a pair sits on the threshold
            weights = dense[~np.eye(len(token_lists), dtype=bool)]
            weights = weights[weights > 0]
            assume(weights.size)
            threshold = weights[pick % weights.size]
        expected = np.array(degree_brute(dense.tolist(), threshold)).tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexrank, "ROW_BLOCK", 3)
            assert degree_centrality(graph_of(token_lists), threshold).tobytes() == expected
            assert degree_centrality(WeightsGraph(rebuilt), threshold).tobytes() == expected

    @settings(max_examples=100, deadline=None)
    @given(sentence_token_lists)
    @example([[], ["a", "b"], [], ["b", "c"], ["a"], []])
    def test_weights_and_continuous_equal_rebuild(self, token_lists):
        assume(any(token_lists))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexrank, "ROW_BLOCK", 3)
            weights = graph_of(token_lists).weights
            gamma = SentenceAnalysis([" ".join(tokens) for tokens in token_lists]).gamma(
                SummaryConfig(centrality="continuous")
            )
        rebuilt = similarity_graph_rebuilt(token_lists)
        assert_same_csr(weights.sorted_indices(), rebuilt)
        assert_continuous_matches_oracles(WeightsGraph(rebuilt), gamma)

    @staticmethod
    def peak_bytes_of_gamma(config: SummaryConfig) -> tuple[int, int]:
        """tracemalloc peak of γ, graph included, on 2,000 sentences that
        all share a term, and the bytes of their full graph."""
        rng = random.Random(61)
        words = [f"w{i}" for i in range(40)]
        n = 2000
        texts = [
            "comum " + " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
            for _ in range(n)
        ]
        analysis = SentenceAnalysis(texts)
        assert all("comum" in tokens for tokens in analysis.tokens)
        # every pair shares a term, so the full graph stores all n² entries,
        # each a float64 weight and an int32 column index
        full_graph_bytes = n * n * 12
        tracemalloc.start()
        try:
            analysis.gamma(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, full_graph_bytes

    def test_degree_never_holds_the_full_graph(self):
        peak, full_graph_bytes = self.peak_bytes_of_gamma(SummaryConfig())
        assert peak < full_graph_bytes / 4

    def test_continuous_never_holds_the_full_graph(self):
        peak, full_graph_bytes = self.peak_bytes_of_gamma(SummaryConfig(centrality="continuous"))
        assert peak < full_graph_bytes / 20


class TestDegreeCentrality:
    def test_complete_graph(self):
        weights = np.full((4, 4), 0.9)
        np.fill_diagonal(weights, 1.0)
        gamma = degree_centrality(graph_from_dense(weights), 0.1)
        assert np.all(gamma == 1.0)

    def test_star_graph(self):
        weights = np.eye(5)
        weights[0, 1:] = weights[1:, 0] = 0.5
        weights[1:, 1:] += 0.05 - 0.05 * np.eye(4)  # below threshold
        gamma = degree_centrality(graph_from_dense(weights), 0.1)
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.25)

    def test_single_sentence(self):
        gamma = degree_centrality(graph_from_dense([[1.0]]), 0.1)
        assert gamma.tolist() == [0.0]

    def test_zero_threshold_counts_everything(self):
        weights = np.eye(3)
        gamma = degree_centrality(graph_from_dense(weights), 0.0)
        assert np.all(gamma == 1.0)

    def test_raising_threshold_never_increases_degree(self):
        rng = np.random.default_rng(6)
        weights = rng.uniform(0, 1, (8, 8))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 1.0)
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            gamma = degree_centrality(graph_from_dense(weights), threshold)
            if previous is not None:
                assert np.all(gamma <= previous + 1e-12)
            previous = gamma

    def test_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(7)
        for row_block in (lexrank.ROW_BLOCK, 3):  # one block, then most graphs span several
            monkeypatch.setattr(lexrank, "ROW_BLOCK", row_block)
            for _ in range(20):
                n = rng.integers(2, 9)
                weights = rng.uniform(0, 1, (n, n))
                weights = (weights + weights.T) / 2
                np.fill_diagonal(weights, 1.0)
                gamma = degree_centrality(graph_from_dense(weights), 0.4)
                assert gamma.tolist() == degree_brute(weights.tolist(), 0.4)


class TestContinuousCentrality:
    def test_uniform_graph(self):
        gamma = continuous_centrality(graph_from_rows(np.ones((4, 1))), SummaryConfig())
        assert np.allclose(gamma, 0.25, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            graph = graph_from_rows(random_rows(rng, int(rng.integers(2, 12))))
            gamma = continuous_centrality(graph, SummaryConfig())
            assert abs(gamma.sum() - 1.0) < 1e-9
            assert np.all(gamma >= 0.0)

    def test_matches_dense_eigen_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            graph = graph_from_rows(random_rows(rng, int(rng.integers(5, 11))))
            gamma = continuous_centrality(graph, SummaryConfig(damping=0.85))
            expected = stationary_brute(graph.weights.toarray(), 0.85)
            assert np.allclose(gamma, expected, atol=1e-6)

    def test_zero_row_replaced_by_uniform(self):
        graph = graph_from_rows([[0.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
        gamma = continuous_centrality(graph, SummaryConfig())
        expected = stationary_brute(graph.weights.toarray(), 0.85)
        assert np.allclose(gamma, expected, atol=1e-6)

    def test_all_zero_graph_rejected(self):
        with pytest.raises(ValueError):
            continuous_centrality(graph_from_rows(np.zeros((3, 2))), SummaryConfig())

    def test_non_convergence_raises(self):
        graph = graph_from_rows(random_rows(np.random.default_rng(10), 6))
        with pytest.raises(RuntimeError, match="converge"):
            continuous_centrality(graph, SummaryConfig(tolerance=1e-300, max_iterations=3))

    def test_non_convergence_names_last_change_and_tolerance(self):
        graph = graph_from_rows([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        config = SummaryConfig(max_iterations=1)
        # one step from the uniform start, which the unequal degrees move
        x = np.full(4, 0.25)
        dense = graph.weights.toarray()
        step = 0.85 * (x / dense.sum(axis=1)) @ dense + 0.15 / 4
        change = np.abs(step - x).sum()
        assert change > 1e-3
        message = f"did not converge in 1 iterations: last L1 change {change:.3g}, tolerance 1e-08"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            continuous_centrality(graph, config)


class TestGuidanceScores:
    def test_no_shared_tokens(self):
        index = build_index([("T1", ["tema", "um"]), ("T2", ["tema", "dois"])])
        sigma = guidance_scores([["nada", "aqui"]], index)
        assert sigma.tolist() == [0.0]

    def test_singleton_catalog_equals_direct_score(self):
        from oracles import bm25_index_score as score

        index = build_index([("T1", ["prescrição", "fiscal"])])
        sentence = ["a", "prescrição", "ocorreu"]
        sigma = guidance_scores([sentence], index)
        assert sigma[0] == score(index, sentence, "T1")

    def test_empty_sentence_scores_zero(self):
        index = build_index([("T1", ["a"])])
        assert guidance_scores([[]], index).tolist() == [0.0]

    def test_matches_brute_force_max(self):
        from oracles import bm25_score_brute

        rng = random.Random(41)
        themes = {f"T{i}": [rng.choice(["a", "b", "c", "d", "e"]) for _ in range(4)] for i in range(3)}
        index = build_index(list(themes.items()))
        for _ in range(20):
            sentence = [rng.choice(["a", "b", "c", "x"]) for _ in range(5)]
            sigma = guidance_scores([sentence], index)[0]
            expected = max(bm25_score_brute(themes, sentence, t) for t in themes)
            assert sigma == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        themes=st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12), min_size=1, max_size=8
        ),
        sentences=st.lists(st.lists(st.sampled_from("abcdefgxyz"), max_size=10), max_size=10),
        variant=st.sampled_from(["nonnegative", "epsilon_floor"]),
    )
    def test_equals_per_sentence_bulk_scores_bitwise(self, themes, sentences, variant):
        # the sparse product against per-sentence scores_for_all maxima,
        # with empty sentences and tokens no theme holds
        docs = [(f"T{i}", tokens) for i, tokens in enumerate(themes)]
        index = build_index(docs, Bm25Params(idf_variant=variant))
        expected = [scores_for_all(index, tokens).max() for tokens in sentences]
        sigma = guidance_scores(sentences, index)
        assert sigma.tobytes() == np.array(expected, dtype=float).tobytes()


class TestCombinedScores:
    def test_hand_arithmetic(self):
        combined = combined_scores(np.array([1.0, 0.5]), np.array([0.0, 1.0]), 1, 1)
        assert combined.tolist() == [1.0, 1.5]

    def test_beta_zero_matches_centrality_ranking(self):
        gamma = [0.2, 0.9, 0.4]
        combined = combined_scores(np.array(gamma), np.array([5.0, 0.1, 3.0]), 1, 0)
        assert np.argsort(-combined).tolist() == np.argsort(-np.asarray(gamma)).tolist()

    def test_alpha_zero_matches_guidance_ranking(self):
        sigma = [5.0, 0.1, 3.0]
        combined = combined_scores(np.array([0.2, 0.9, 0.4]), np.array(sigma), 0, 1)
        assert np.argsort(-combined).tolist() == np.argsort(-np.asarray(sigma)).tolist()

    def test_argmax_invariant_under_common_rescaling(self):
        gamma, sigma = np.array([0.2, 0.8, 0.5]), np.array([3.0, 1.0, 2.0])
        base = combined_scores(gamma, sigma, 1.0, 2.0)
        scaled = combined_scores(gamma, sigma, 3.0, 6.0)
        assert np.argmax(base) == np.argmax(scaled)

    def test_all_zero_vector_stays_zero(self):
        combined = combined_scores(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 1, 1)
        assert combined.tolist() == [0.0, 0.0]

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            combined_scores(np.array([1.0]), np.array([1.0]), 0, 0)


class TestSummaryConfig:
    @pytest.mark.parametrize(
        "knobs, named",
        [
            ({"alpha": math.nan}, "alpha and beta"),
            ({"beta": math.inf}, "alpha and beta"),
            ({"alpha": -math.inf}, "alpha and beta"),
            ({"alpha": 1e308, "beta": 1e308}, "finite sum"),
            ({"tolerance": -1.0}, "tolerance"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"tolerance": math.nan}, "tolerance"),
            ({"max_iterations": 0}, "max_iterations"),
        ],
    )
    def test_garbage_knobs_rejected(self, knobs, named):
        with pytest.raises(ValueError, match=named):
            SummaryConfig(**knobs)

    def test_largest_finite_blend_kept(self):
        config = SummaryConfig(alpha=1e308, beta=1.0)
        blended = combined_scores(np.array([1.0, 0.5]), np.array([0.0, 1.0]), config.alpha, config.beta)
        assert np.isfinite(blended).all()


class TestSummarize:
    def test_size_at_least_n_keeps_document_order(self):
        analysis = SentenceAnalysis(["Um texto.", "Outro texto.", "Mais um texto."])
        summary = summarize(analysis, SummaryConfig(size=10))
        assert tuple(sorted(summary)) == (0, 1, 2)

    def test_plain_full_size_is_identity(self):
        analysis = SentenceAnalysis(["A b c.", "B c d.", "C d e.", "D e f."])
        summary = summarize(analysis, SummaryConfig(size=4))
        assert tuple(sorted(summary)) == (0, 1, 2, 3)

    def test_guided_alpha_zero_prefers_theme_match(self):
        index = build_index([("T1", ["prescrição", "intercorrente"])])
        analysis = SentenceAnalysis(
            ["Fato banal ocorreu. ", "Houve prescrição intercorrente.", "Nada relevante aqui."]
        )
        config = SummaryConfig(size=1, alpha=0.0, beta=1.0)
        summary = summarize(analysis, config, theme_index=index)
        assert summary[0] == 1

    def test_guided_beta_zero_equals_plain_selection(self):
        rng = random.Random(53)
        index = build_index([("T1", ["w1", "w2"]), ("T2", ["w3", "w4", "w5"])])
        for _ in range(20):
            token_lists = random_token_lists(rng, max_sentences=8)
            analysis = SentenceAnalysis([" ".join(toks) for toks in token_lists])
            size = rng.randint(1, len(token_lists))
            plain = summarize(analysis, SummaryConfig(size=size))
            guided = summarize(
                analysis,
                SummaryConfig(size=size, alpha=1.0, beta=0.0),
                theme_index=index,
            )
            assert set(guided) == set(plain)

    def test_selection_matches_brute_force(self):
        rng = random.Random(59)
        theme_docs = {
            "T1": ["w1", "w2", "w3"],
            "T2": ["w4", "w5"],
            "T3": ["w6", "w7", "w8", "w9"],
        }
        index = build_index(list(theme_docs.items()))
        for _ in range(20):
            token_lists = random_token_lists(rng, max_sentences=6)
            analysis = SentenceAnalysis([" ".join(toks) for toks in token_lists])
            size = rng.randint(1, len(token_lists))
            config = SummaryConfig(size=size, alpha=1.0, beta=1.0)
            summary = summarize(analysis, config, theme_index=index)
            expected = guided_selection_brute(token_lists, theme_docs, 1.0, 1.0, size)
            assert list(summary) == expected

    def test_six_sentence_document_size_two(self):
        theme_docs = {"T1": ["alvo", "central"], "T2": ["outro", "tema"]}
        index = build_index(list(theme_docs.items()))
        texts = [
            "Frase comum banal.",
            "Frase comum banal.",
            "O alvo central aparece.",
            "Assunto totalmente diverso.",
            "Frase comum banal.",
            "Tema outro aqui presente.",
        ]
        analysis = SentenceAnalysis(texts)
        config = SummaryConfig(size=2, alpha=1.0, beta=1.0)
        summary = summarize(analysis, config, theme_index=index)
        expected = guided_selection_brute(
            [t.lower().replace(".", "").split() for t in texts], theme_docs, 1.0, 1.0, 2
        )
        assert sorted(summary) == sorted(expected)

    def test_ties_break_by_ascending_index(self):
        analysis = SentenceAnalysis(["Mesma frase aqui.", "Mesma frase aqui.", "Mesma frase aqui."])
        summary = summarize(analysis, SummaryConfig(size=2))
        assert summary == (0, 1)

    def test_rows_in_selection_order(self):
        # the best guidance first, then the tie at zero by ascending index
        index = build_index([("T1", ["final", "importante"])])
        analysis = SentenceAnalysis(
            ["Nada de mais. ", "Comum banal corriqueiro.", "Final importante decisivo."]
        )
        config = SummaryConfig(size=2, alpha=0.0, beta=1.0)
        assert summarize(analysis, config, theme_index=index) == (2, 0)


def test_select_top_truncates_and_orders():
    scores = np.array([0.1, 0.9, 0.9, 0.2])
    assert select_top(scores, 3) == [1, 2, 3]
    assert select_top(scores, 10) == [1, 2, 3, 0]


@settings(max_examples=300)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.5, 1e-300, -1e300, np.inf, -np.inf])
        | st.floats(allow_nan=False),
        max_size=30,
    ),
    st.integers(1, 35),
)
@example([0.0, -0.0, 0.0, -0.0], 3)
def test_select_top_equals_keyed_sort(scores, size):
    assert select_top(np.array(scores, dtype=float), size) == select_top_sorted(scores, size)


class TestSharedAnalysis:
    def test_selections_from_one_analysis_equal_fresh_summaries(self, monkeypatch):
        rng = random.Random(59)
        index = build_index([("T1", ["w1", "w2"]), ("T2", ["w3", "w4", "w5"])])
        other_index = build_index([("T9", ["w6", "w7"])])
        graphs = []
        original = lexrank.similarity_matrix
        monkeypatch.setattr(
            lexrank, "similarity_matrix", lambda *a, **k: graphs.append(1) or original(*a, **k)
        )
        for _ in range(10):
            token_lists = random_token_lists(rng, max_sentences=9)
            sentences = [" ".join(toks) for toks in token_lists]
            analysis = SentenceAnalysis(sentences)
            graphs.clear()
            configs = [
                SummaryConfig(size=size, alpha=alpha, beta=beta, threshold=threshold)
                for size in (1, 3, 20)
                for alpha, beta in ((1.0, 1.0), (0.0, 2.0), (0.5, 0.0))
                for threshold in (0.1, 0.3)
            ]
            for config in configs:
                for theme_index in (None, index, other_index):
                    assert summarize(analysis, config, theme_index) == summarize(
                        SentenceAnalysis(sentences), config, theme_index
                    )
            fresh = 3 * len(configs)  # one graph per fresh analysis
            assert len(graphs) == 1 + fresh  # one from the shared analysis

    def test_gamma_keyed_by_the_knobs_its_centrality_reads(self, monkeypatch):
        calls = {"similarity_matrix": 0, "centrality": 0}
        for name in calls:
            original = getattr(lexrank, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(lexrank, name, counted)
        analysis = SentenceAnalysis(["A b c.", "B c d.", "C d e.", "A e f."])
        degree = [SummaryConfig(damping=d, tolerance=t) for d in (0.5, 0.85) for t in (1e-8, 1e-6)]
        continuous = [SummaryConfig(centrality="continuous", threshold=t) for t in (0.1, 0.3)]
        for config in degree + continuous:
            summarize(analysis, config)
        assert calls == {"similarity_matrix": 1, "centrality": 2}
        summarize(analysis, SummaryConfig(threshold=0.3))
        summarize(analysis, SummaryConfig(centrality="continuous", damping=0.5))
        assert calls == {"similarity_matrix": 1, "centrality": 4}


_THEMES = st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12), min_size=1, max_size=8)
_SENTENCES = st.lists(st.lists(st.sampled_from("abcdefgxyz"), max_size=10), min_size=1, max_size=10)


class TestSharedCounts:
    """Guidance and BM25 scoring from the analysis's one term-count matrix
    keep the bits of the per-query paths they replace."""

    @settings(max_examples=200, deadline=None)
    @given(
        themes=_THEMES,
        sentences=_SENTENCES,
        shared=st.booleans(),
        variant=st.sampled_from(["nonnegative", "epsilon_floor"]),
    )
    def test_sigma_equals_oracle_bitwise(self, themes, sentences, shared, variant):
        # empty sentences, sentences of unindexed tokens only and, unless
        # shared, an index with no term in common with the document
        prefix = "" if shared else "t"
        docs = [(f"T{i}", [prefix + t for t in tokens]) for i, tokens in enumerate(themes)]
        index = build_index(docs, Bm25Params(idf_variant=variant))
        analysis = SentenceAnalysis([" ".join(toks) for toks in sentences])
        assert analysis.tokens == sentences
        expected = guidance_brute(sentences, index)
        assert analysis.sigma(index).tobytes() == expected.tobytes()
        assert guidance_scores(sentences, index).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        themes=_THEMES,
        sentences=_SENTENCES,
        size=st.integers(1, 12),
        variant=st.sampled_from(["nonnegative", "epsilon_floor"]),
    )
    def test_row_scores_equal_token_scores_bitwise(self, themes, sentences, size, variant):
        assume(any(sentences))
        index = build_index(
            [(f"T{i}", tokens) for i, tokens in enumerate(themes)], Bm25Params(idf_variant=variant)
        )
        analysis = SentenceAnalysis([" ".join(toks) for toks in sentences])
        for theme_index in (None, index):  # lexrank, guided_lexrank
            rows = summarize(analysis, SummaryConfig(size=size), theme_index)
            tokens = [token for i in sorted(rows) for token in sentences[i]]
            got = analysis.bm25_scores(index, rows)
            assert got.tobytes() == scores_for_all(index, tokens).tobytes()
        everything = [token for tokens in sentences for token in tokens]
        got = analysis.bm25_scores(index, range(len(sentences)))
        assert got.tobytes() == scores_for_all(index, everything).tobytes()
