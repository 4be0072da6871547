from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bm25_score_brute
from themerank.bm25 import build_index
from themerank.textproc import term_counts
from themerank.similarity import (
    EmbeddingCosine,
    EmbeddingTable,
    TfidfCosine,
    cosine,
    load_embeddings,
    score_by_bm25,
    tfidf_vectors,
)
from synth import write_embeddings


class TestScoreByBm25:
    def test_no_shared_tokens_all_zero(self):
        index = build_index([("T1", ["um"]), ("T2", ["dois"])])
        assert score_by_bm25(["nada", "aqui"], index).tolist() == [0.0, 0.0]

    def test_verbatim_theme_attains_maximum(self):
        themes = {
            "T1": ["prescrição", "intercorrente", "execução"],
            "T2": ["honorários", "sucumbência"],
            "T3": ["contribuição", "previdenciária"],
        }
        index = build_index(list(themes.items()))
        scores = score_by_bm25(themes["T1"], index)
        assert index.doc_ids[scores.argmax()] == "T1"

    def test_one_score_per_theme_in_index_order(self):
        index = build_index([("T3", ["c"]), ("T1", ["a"]), ("T2", ["b"])])
        scores = score_by_bm25(["a", "b"], index)
        assert scores.shape == (3,)
        assert scores[0] == 0.0 and scores[1] > 0.0 and scores[2] > 0.0

    def test_matches_per_theme_brute_force(self):
        rng = random.Random(61)
        themes = {f"T{i}": [rng.choice("abcdef") for _ in range(5)] for i in range(3)}
        index = build_index(list(themes.items()))
        query = ["a", "c", "e", "zz"]
        scores = score_by_bm25(query, index)
        for position, theme_id in enumerate(index.doc_ids):
            assert scores[position] == pytest.approx(
                bm25_score_brute(themes, query, theme_id), abs=1e-12
            )


class TestCosine:
    def test_identical_vectors(self):
        u = np.array([1.0, 2.0, 3.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8, abs=1e-12)

    def test_positive_scaling_invariance_and_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert cosine(u, 3.7 * u) == pytest.approx(1.0, abs=1e-12)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert -1.0 <= cosine(u, v) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine(np.array([1.0]), np.array([1.0, 2.0]))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_huge_components_do_not_overflow(self):
        value = cosine(np.array([1e200, 1.0]), np.array([1e200, 1e200]))
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_tiny_vector_is_not_zero_norm(self):
        assert cosine(np.array([1e-200, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_bitwise_equal_to_unscaled_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            u, v = rng.normal(size=(2, 7)) * 10.0 ** rng.integers(-5, 6, size=(2, 1))
            plain = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert cosine(u, v) == min(1.0, max(-1.0, plain))


class TestLoadEmbeddings:
    def test_two_vectors(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("id\t3\nA1\t1.0,2.0,3.0\nT1\t0.5,0.5,0.5\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert set(table.vectors) == {"A1", "T1"}
        assert table.vectors["A1"].tolist() == [1.0, 2.0, 3.0]

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("id\t3\nA1\t1.0,2.0,3.0\nT1\t0.5,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3"):
            load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "missing.tsv")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("id\t2\nA1\t1,2\nA1\t3,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(path)

    def test_non_numeric_component_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("id\t2\nA1\t1,zz\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric"):
            load_embeddings(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        path = tmp_path / "emb.tsv"
        path.write_text(f"id\t2\nA1\t1,2\nT1\t0.5,{component}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{path}: line 3: non-finite component"):
            load_embeddings(path)

    def test_tiny_vectors_are_not_zero_norm(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("id\t2\nA1\t1e-200,0\nT1\t0,1e-300\n", encoding="utf-8")
        assert load_embeddings(path).vectors["A1"].tolist() == [1e-200, 0.0]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("foo,bar\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_embeddings(path)

    def test_round_trip(self, tmp_path):
        table = EmbeddingTable(
            dimension=2,
            vectors={"A1": np.array([0.25, -1.5]), "T1": np.array([3.0, 0.125])},
        )
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)
        loaded = load_embeddings(path)
        assert loaded.dimension == 2
        for key, vector in table.vectors.items():
            assert loaded.vectors[key].tolist() == vector.tolist()


class TestTfidfVectors:
    def test_identical_texts_cosine_one(self):
        table = tfidf_vectors([("a", ["x", "y"]), ("b", ["x", "y"])])
        assert cosine(table.vectors["a"], table.vectors["b"]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_texts_cosine_zero(self):
        table = tfidf_vectors([("a", ["x", "y"]), ("b", ["z", "w"])])
        assert cosine(table.vectors["a"], table.vectors["b"]) == 0.0

    def test_two_text_hand_computation(self):
        table = tfidf_vectors([("a", ["x", "x", "y"]), ("b", ["y", "z"])])
        # vocabulary sorted: x, y, z; df = 1, 2, 1 over N=2
        idf_x = math.log(2 / 1) + 1
        idf_y = math.log(2 / 2) + 1
        idf_z = math.log(2 / 1) + 1
        assert table.dimension == 3
        assert table.vectors["a"].tolist() == [2 * idf_x, 1 * idf_y, 0.0]
        assert table.vectors["b"].tolist() == [0.0, 1 * idf_y, 1 * idf_z]

    def test_appending_text_keeps_tf_components(self):
        base = tfidf_vectors([("a", ["x", "x", "y"])])
        extended = tfidf_vectors([("a", ["x", "x", "y"]), ("b", ["y", "z"])])
        # tf structure of "a" unchanged: component ratios for shared terms persist
        assert extended.dimension == 3
        # term x had tf 2 and y tf 1 in both vocabularies
        x_col, y_col = 0, 1
        idf = lambda n, df: math.log(n / df) + 1
        assert base.vectors["a"][0] / idf(1, 1) == pytest.approx(2.0)
        assert extended.vectors["a"][x_col] / idf(2, 1) == pytest.approx(2.0)
        assert extended.vectors["a"][y_col] / idf(2, 2) == pytest.approx(1.0)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            tfidf_vectors([("a", []), ("b", [])])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tfidf_vectors([("a", ["x"]), ("a", ["y"])])


def tfidf_cosines_slow(themes, query):
    """Reference: a vocabulary and dense vectors over the query plus the
    themes, then one cosine per theme."""
    table = tfidf_vectors([("query", query)] + [(f"T{i}", t) for i, t in enumerate(themes)])
    return [cosine(table.vectors["query"], table.vectors[f"T{i}"]) for i in range(len(themes))]


theme_token_lists = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10), min_size=1, max_size=8
)


class TestTfidfCosine:
    @settings(max_examples=200, deadline=None)
    @given(
        themes=theme_token_lists,
        query=st.lists(st.sampled_from("abcdefxyz"), min_size=1, max_size=30),
        every_theme_term=st.booleans(),
    )
    @example(themes=[["a", "b", "a"]], query=["a", "x", "x"], every_theme_term=False)
    @example(themes=[["a"], ["b", "c"]], query=["c"], every_theme_term=True)
    def test_matches_tfidf_vectors_and_cosine(self, themes, query, every_theme_term):
        # query-only terms (x, y, z), repeated terms, and optionally a query
        # that holds every theme term
        if every_theme_term:
            query = query + sorted({term for tokens in themes for term in tokens})
        got = TfidfCosine(*term_counts(themes)).scores(query)
        assert got.shape == (len(themes),)
        assert np.abs(got - tfidf_cosines_slow(themes, query)).max() <= 1e-12


def embedding_cosines_slow(table, theme_ids, query):
    return [cosine(query, table.vectors[theme_id]) for theme_id in theme_ids]


vectors_3d = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.0
)


class TestEmbeddingCosine:
    @settings(max_examples=200, deadline=None)
    @given(themes=st.lists(vectors_3d, min_size=1, max_size=8), query=vectors_3d)
    def test_matches_per_theme_cosine(self, themes, query):
        theme_ids = [f"T{i}" for i in range(len(themes))]
        table = EmbeddingTable(3, {t: np.array(v) for t, v in zip(theme_ids, themes)})
        got = EmbeddingCosine(table, theme_ids, "emb.tsv").scores(np.array(query))
        expected = embedding_cosines_slow(table, theme_ids, np.array(query))
        assert np.abs(got - expected).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["ok", "missing", "zero"]), min_size=1, max_size=6),
        query=vectors_3d,
    )
    def test_first_unusable_theme_named_as_the_loop_did(self, kinds, query):
        theme_ids = [f"T{i}" for i in range(len(kinds))]
        vectors = {}
        for theme_id, kind in zip(theme_ids, kinds):
            if kind != "missing":
                vectors[theme_id] = np.zeros(3) if kind == "zero" else np.array([1.0, 2.0, 0.5])
        table = EmbeddingTable(3, vectors)
        fast = EmbeddingCosine(table, theme_ids, "emb.tsv")
        # reference per-theme loop: the first theme in catalog order without
        # a vector or with a zero-norm one names the failure
        expected = None
        for theme_id in theme_ids:
            if theme_id not in vectors:
                expected = f"theme {theme_id!r}: no embedding in emb.tsv"
                break
            try:
                cosine(np.array(query), vectors[theme_id])
            except ValueError as exc:
                expected = f"theme {theme_id!r}: {exc}"
                break
        if expected is None:
            assert np.abs(
                fast.scores(np.array(query)) - embedding_cosines_slow(table, theme_ids, np.array(query))
            ).max() <= 1e-12
        else:
            with pytest.raises(ValueError) as raised:
                fast.scores(np.array(query))
            assert str(raised.value) == expected

    def test_huge_theme_component_scores_finite(self):
        table = EmbeddingTable(2, {"T1": np.array([1e200, 1.0]), "T2": np.array([0.0, 3.0])})
        got = EmbeddingCosine(table, ["T1", "T2"], "emb.tsv").scores(np.array([1e200, 1e200]))
        assert got == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)], abs=1e-15)

    def test_tiny_theme_vector_is_usable(self):
        table = EmbeddingTable(2, {"T1": np.array([1e-200, 0.0]), "T2": np.array([0.0, 1e-310])})
        scorer = EmbeddingCosine(table, ["T1", "T2"], "emb.tsv")
        assert scorer.unusable is None
        assert scorer.scores(np.array([1.0, 0.0])).tolist() == [1.0, 0.0]

    def test_bitwise_equal_to_unscaled_products(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            scale = 10.0 ** rng.integers(-5, 6, size=(9, 1))
            matrix = rng.normal(size=(9, 16)) * scale
            query = rng.normal(size=16) * 10.0 ** rng.integers(-5, 6)
            table = EmbeddingTable(16, {f"T{i}": row for i, row in enumerate(matrix)})
            got = EmbeddingCosine(table, list(table.vectors), "emb.tsv").scores(query)
            norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
            plain = np.clip(matrix @ query / norms, -1.0, 1.0)
            assert got.tobytes() == plain.tobytes()
