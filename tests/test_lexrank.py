from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import (
    degree_brute,
    guided_selection_brute,
    select_top_sorted,
    sentence_similarity_brute,
    similarity_graph_rebuilt,
    stationary_brute,
)
from themerank.bm25 import Bm25Params, build_index, scores_for_all
from themerank import lexrank
from themerank.lexrank import (
    SentenceAnalysis,
    SentenceGraph,
    Summary,
    SummaryConfig,
    combined_scores,
    continuous_centrality,
    degree_centrality,
    guidance_scores,
    select,
    select_top,
    similarity_matrix,
    summarize,
)
from themerank.textproc import Sentence


def graph_from_dense(weights, threshold=0.1) -> SentenceGraph:
    arr = np.asarray(weights, dtype=float)
    return SentenceGraph(n=arr.shape[0], weights=sparse.csr_matrix(arr), threshold=threshold)


def random_token_lists(rng: random.Random, max_sentences=10, vocab=12):
    words = [f"w{i}" for i in range(vocab)]
    n = rng.randint(2, max_sentences)
    return [[rng.choice(words) for _ in range(rng.randint(1, 10))] for _ in range(n)]


class TestSimilarityMatrix:
    def test_identical_sentences(self):
        graph = similarity_matrix([["a", "b"], ["a", "b"]])
        assert graph.weights.toarray()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vocabulary(self):
        graph = similarity_matrix([["a", "b"], ["c", "d"]])
        assert graph.weights.toarray()[0, 1] == 0.0

    def test_three_sentence_hand_values(self):
        graph = similarity_matrix(
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
            dense = similarity_matrix(token_lists).weights.toarray()
            expected = np.array(sentence_similarity_brute(token_lists))
            assert np.allclose(dense, expected, atol=1e-10)

    def test_symmetric_with_unit_diagonal(self):
        rng = random.Random(29)
        for _ in range(10):
            token_lists = random_token_lists(rng)
            dense = similarity_matrix(token_lists).weights.toarray()
            assert np.array_equal(dense, dense.T)
            assert np.all(np.diag(dense) == 1.0)
            assert np.all((dense >= 0.0) & (dense <= 1.0))

    def test_empty_sentence_gets_zero_row(self):
        dense = similarity_matrix([["a", "b"], [], ["a"]]).weights.toarray()
        assert np.all(dense[1] == 0.0) and np.all(dense[:, 1] == 0.0)

    def test_permutation_equivariant(self):
        rng = random.Random(31)
        token_lists = random_token_lists(rng, max_sentences=6)
        perm = list(range(len(token_lists)))
        rng.shuffle(perm)
        base = similarity_matrix(token_lists).weights.toarray()
        shuffled = similarity_matrix([token_lists[i] for i in perm]).weights.toarray()
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-12)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([[], []])


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


class TestGraphMatchesRebuild:
    """The bare product, clipped with its diagonal written in place, equals
    the graph rebuilt from its upper triangle bit for bit, and so does the
    centrality computed on it."""

    @settings(max_examples=300, deadline=None)
    @given(sentence_token_lists)
    @example([["a", "b", "a"]])
    @example([["a", "b"], ["a", "b"], ["b", "a"]])
    @example([[], ["a", "c"], [], ["c", "a", "a"]])
    def test_weights_bitwise(self, token_lists):
        assume(any(token_lists))
        graph = similarity_matrix(token_lists)
        assert graph.n == len(token_lists)
        assert_same_csr(graph.weights.sorted_indices(), similarity_graph_rebuilt(token_lists))

    @settings(max_examples=200, deadline=None)
    @given(sentence_token_lists, st.sampled_from([0.05, 0.1, 0.3, 0.6]))
    @example([["a"]], 0.1)
    @example([["a", "b"], ["a", "b"], []], 0.1)
    def test_gamma_bitwise(self, token_lists, threshold):
        assume(any(token_lists))
        graph = similarity_matrix(token_lists, threshold=threshold)
        rebuilt = SentenceGraph(
            n=len(token_lists), weights=similarity_graph_rebuilt(token_lists), threshold=threshold
        )
        assert degree_centrality(graph).tobytes() == degree_centrality(rebuilt).tobytes()
        assert continuous_centrality(graph).tobytes() == continuous_centrality(rebuilt).tobytes()


class TestDegreeCentrality:
    def test_complete_graph(self):
        weights = np.full((4, 4), 0.9)
        np.fill_diagonal(weights, 1.0)
        gamma = degree_centrality(graph_from_dense(weights))
        assert np.all(gamma == 1.0)

    def test_star_graph(self):
        weights = np.eye(5)
        weights[0, 1:] = weights[1:, 0] = 0.5
        weights[1:, 1:] += 0.05 - 0.05 * np.eye(4)  # below threshold
        gamma = degree_centrality(graph_from_dense(weights, threshold=0.1))
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.25)

    def test_single_sentence(self):
        gamma = degree_centrality(graph_from_dense([[1.0]]))
        assert gamma.tolist() == [0.0]

    def test_zero_threshold_counts_everything(self):
        weights = np.eye(3)
        gamma = degree_centrality(graph_from_dense(weights, threshold=0.0))
        assert np.all(gamma == 1.0)

    def test_raising_threshold_never_increases_degree(self):
        rng = np.random.default_rng(6)
        weights = rng.uniform(0, 1, (8, 8))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 1.0)
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            gamma = degree_centrality(graph_from_dense(weights, threshold=threshold))
            if previous is not None:
                assert np.all(gamma <= previous + 1e-12)
            previous = gamma

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 9)
            weights = rng.uniform(0, 1, (n, n))
            weights = (weights + weights.T) / 2
            np.fill_diagonal(weights, 1.0)
            gamma = degree_centrality(graph_from_dense(weights, threshold=0.4))
            assert gamma.tolist() == degree_brute(weights.tolist(), 0.4)


class TestContinuousCentrality:
    def test_uniform_graph(self):
        weights = np.ones((4, 4))
        gamma = continuous_centrality(graph_from_dense(weights))
        assert np.allclose(gamma, 0.25, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            weights = rng.uniform(0, 1, (n, n))
            weights = (weights + weights.T) / 2
            gamma = continuous_centrality(graph_from_dense(weights))
            assert abs(gamma.sum() - 1.0) < 1e-9
            assert np.all(gamma >= 0.0)

    def test_matches_dense_eigen_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(5, 11))
            weights = rng.uniform(0, 1, (n, n))
            weights = (weights + weights.T) / 2
            np.fill_diagonal(weights, 1.0)
            gamma = continuous_centrality(graph_from_dense(weights), damping=0.85)
            expected = stationary_brute(weights, 0.85)
            assert np.allclose(gamma, expected, atol=1e-6)

    def test_zero_row_replaced_by_uniform(self):
        weights = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.8], [0.0, 0.8, 1.0]])
        gamma = continuous_centrality(graph_from_dense(weights))
        expected = stationary_brute(weights, 0.85)
        assert np.allclose(gamma, expected, atol=1e-6)

    def test_all_zero_graph_rejected(self):
        with pytest.raises(ValueError):
            continuous_centrality(graph_from_dense(np.zeros((3, 3))))

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(10)
        weights = rng.uniform(0, 1, (6, 6))
        weights = (weights + weights.T) / 2
        with pytest.raises(RuntimeError, match="converge"):
            continuous_centrality(
                graph_from_dense(weights), tolerance=1e-300, max_iterations=3
            )


class TestGuidanceScores:
    def test_no_shared_tokens(self):
        index = build_index([("T1", ["tema", "um"]), ("T2", ["tema", "dois"])])
        sigma = guidance_scores([["nada", "aqui"]], index)
        assert sigma.tolist() == [0.0]

    def test_singleton_catalog_equals_direct_score(self):
        from themerank.bm25 import score

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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            combined_scores(np.array([1.0]), np.array([1.0, 2.0]), 1, 1)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            combined_scores(np.array([1.0]), np.array([1.0]), 0, 0)


def make_sentences(texts):
    return [Sentence(i, t) for i, t in enumerate(texts)]


class TestSummarize:
    def test_size_at_least_n_keeps_document_order(self):
        sentences = make_sentences(["Um texto.", "Outro texto.", "Mais um texto."])
        summary = summarize(sentences, SummaryConfig(size=10))
        assert summary.indices == (0, 1, 2)
        assert summary.text == "Um texto. Outro texto. Mais um texto."

    def test_plain_full_size_is_identity(self):
        sentences = make_sentences(["A b c.", "B c d.", "C d e.", "D e f."])
        summary = summarize(sentences, SummaryConfig(size=4))
        assert summary.indices == (0, 1, 2, 3)

    def test_guided_alpha_zero_prefers_theme_match(self):
        index = build_index([("T1", ["prescrição", "intercorrente"])])
        sentences = make_sentences(
            ["Fato banal ocorreu. ", "Houve prescrição intercorrente.", "Nada relevante aqui."]
        )
        config = SummaryConfig(size=1, alpha=0.0, beta=1.0)
        summary = summarize(sentences, config, theme_index=index)
        assert summary.order[0] == 1

    def test_guided_beta_zero_equals_plain_selection(self):
        rng = random.Random(53)
        index = build_index([("T1", ["w1", "w2"]), ("T2", ["w3", "w4", "w5"])])
        for _ in range(20):
            token_lists = random_token_lists(rng, max_sentences=8)
            sentences = make_sentences([" ".join(toks) for toks in token_lists])
            size = rng.randint(1, len(sentences))
            plain = summarize(sentences, SummaryConfig(size=size))
            guided = summarize(
                sentences,
                SummaryConfig(size=size, alpha=1.0, beta=0.0),
                theme_index=index,
            )
            assert set(guided.indices) == set(plain.indices)

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
            sentences = make_sentences([" ".join(toks) for toks in token_lists])
            size = rng.randint(1, len(sentences))
            config = SummaryConfig(size=size, alpha=1.0, beta=1.0)
            summary = summarize(sentences, config, theme_index=index)
            expected = guided_selection_brute(token_lists, theme_docs, 1.0, 1.0, size)
            assert list(summary.order) == expected

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
        sentences = make_sentences(texts)
        config = SummaryConfig(size=2, alpha=1.0, beta=1.0)
        summary = summarize(sentences, config, theme_index=index)
        expected = guided_selection_brute(
            [t.lower().replace(".", "").split() for t in texts], theme_docs, 1.0, 1.0, 2
        )
        assert sorted(summary.order) == sorted(expected)

    def test_ties_break_by_ascending_index(self):
        sentences = make_sentences(["Mesma frase aqui.", "Mesma frase aqui.", "Mesma frase aqui."])
        summary = summarize(sentences, SummaryConfig(size=2))
        assert summary.indices == (0, 1)

    def test_output_reordered_by_position(self):
        index = build_index([("T1", ["final", "importante"])])
        sentences = make_sentences(
            ["Nada de mais. ", "Comum banal corriqueiro.", "Final importante decisivo."]
        )
        config = SummaryConfig(size=2, alpha=0.0, beta=1.0)
        summary = summarize(sentences, config, theme_index=index)
        assert summary.indices == tuple(sorted(summary.indices))
        assert isinstance(summary, Summary)


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
            sentences = make_sentences([" ".join(toks) for toks in token_lists])
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
                    assert select(analysis, config, theme_index) == summarize(
                        sentences, config, theme_index
                    )
            fresh = 3 * len(configs)  # one graph per summarize call
            assert len(graphs) == 2 + fresh  # one per threshold from the shared analysis
