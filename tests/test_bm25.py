from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bm25_rank_brute, bm25_score_brute
from themerank.bm25 import Bm25Params, build_index, score, scores_for_all
from themerank.corpus import ThemeCatalog, ThemeRecord
from themerank.lexrank import select_top
from themerank.ranking import PipelineConfig, prepare_themes
from themerank.similarity import score_by_bm25


def toy_corpus(rng: random.Random, max_docs=8, max_terms=20):
    vocabulary = [f"w{i}" for i in range(max_terms)]
    n_docs = rng.randint(1, max_docs)
    docs = {}
    for d in range(n_docs):
        length = rng.randint(1, 30)
        docs[f"d{d}"] = [rng.choice(vocabulary) for _ in range(length)]
    return docs


class TestBuildIndex:
    def test_empty_doc_set_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_zero_token_doc_rejected(self):
        with pytest.raises(ValueError, match="zero tokens"):
            build_index([("d1", [])])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([("d1", ["a"]), ("d1", ["b"])])


class TestScore:
    def test_hand_value_single_doc(self):
        # N=1, df=1, dl=avgdl: idf = ln(1 + 0.5/1.5), saturation cancels
        index = build_index([("d1", ["a", "b"])])
        assert score(index, ["a"], "d1") == pytest.approx(math.log(4 / 3), abs=1e-15)

    def test_absent_terms_contribute_zero(self):
        index = build_index([("d1", ["a", "b"])])
        assert score(index, ["x", "y"], "d1") == 0.0

    def test_duplicate_query_terms_count_once(self):
        index = build_index([("d1", ["a", "b"]), ("d2", ["a", "a", "b"])])
        for doc in ("d1", "d2"):
            assert score(index, ["a", "a"], doc) == score(index, ["a"], doc)

    def test_unknown_doc_id(self):
        index = build_index([("d1", ["a"])])
        with pytest.raises(ValueError, match="unknown doc_id"):
            score(index, ["a"], "dX")

    def test_additive_over_disjoint_terms(self):
        index = build_index([("d1", ["a", "b", "c", "a"]), ("d2", ["b", "c"])])
        for doc in ("d1", "d2"):
            whole = score(index, ["a", "b"], doc)
            assert whole == pytest.approx(
                score(index, ["a"], doc) + score(index, ["b"], doc), abs=1e-12
            )

    def test_monotone_in_term_frequency(self):
        # same lengths and corpus shape, tf of the probe term grows
        low = build_index([("d1", ["a", "p", "p", "p"]), ("d2", ["b", "q", "q", "q"])])
        high = build_index([("d1", ["a", "a", "p", "p"]), ("d2", ["b", "q", "q", "q"])])
        assert score(high, ["a"], "d1") >= score(low, ["a"], "d1")

    def test_matches_bulk_scoring_bitwise(self):
        rng = random.Random(5)
        for _ in range(20):
            docs = toy_corpus(rng)
            index = build_index(list(docs.items()))
            query = [f"w{rng.randint(0, 19)}" for _ in range(6)]
            bulk = scores_for_all(index, query)
            for pos, doc_id in enumerate(index.doc_ids):
                assert score(index, query, doc_id) == bulk[pos]

    @settings(max_examples=150, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=15), min_size=1, max_size=8
        ),
        query=st.lists(st.sampled_from("abcdefghxyz"), max_size=12),
        variant=st.sampled_from(["nonnegative", "epsilon_floor"]),
    )
    def test_bulk_equals_single_scores_bitwise_on_indexed_terms(self, docs, query, variant):
        # queries drawn from the indexed vocabulary, so the per-term sums
        # are non-trivial and their order shows in the last bits
        index = build_index([(f"d{i}", t) for i, t in enumerate(docs)], Bm25Params(idf_variant=variant))
        bulk = scores_for_all(index, query)
        single = [score(index, query, doc_id) for doc_id in index.doc_ids]
        assert bulk.tobytes() == np.array(single).tobytes()


class TestIdfVariants:
    def test_nonnegative_never_negative(self):
        rng = random.Random(11)
        params = Bm25Params(idf_variant="nonnegative")
        for _ in range(50):
            docs = toy_corpus(rng)
            index = build_index(list(docs.items()), params)
            query = [rng.choice([f"w{i}" for i in range(20)]) for _ in range(5)]
            assert all(s >= 0.0 for s in scores_for_all(index, query))

    def test_epsilon_floor_replaces_negative_idf(self):
        # term in every doc of a 3-doc corpus has raw idf ln(0.5/3.5) < 0
        docs = [("d1", ["a", "x"]), ("d2", ["a", "y"]), ("d3", ["a", "z"])]
        params = Bm25Params(idf_variant="epsilon_floor", epsilon=0.25)
        index = build_index(docs, params)
        raw_positive = math.log((3 - 1 + 0.5) / (1 + 0.5))
        assert index.idf("x") == pytest.approx(raw_positive)
        assert index.idf("a") == pytest.approx(0.25 * raw_positive)

    def test_epsilon_floor_all_negative_gives_zero(self):
        params = Bm25Params(idf_variant="epsilon_floor")
        index = build_index([("d1", ["a"])], params)
        assert index.idf("a") == 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)
        with pytest.raises(ValueError):
            Bm25Params(idf_variant="other")
        with pytest.raises(ValueError):
            Bm25Params(epsilon=0.0)


class TestRank:
    """The pipeline's own top-k over BM25 scores: catalog positions in
    ascending theme id, then a stable top-k, ranks all themes as the brute
    force does (descending score, ties by ascending id)."""

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(23)
        for _ in range(30):
            docs = toy_corpus(rng, max_docs=5)
            catalog = ThemeCatalog(ThemeRecord(i, " ".join(tokens)) for i, tokens in docs.items())
            prepared = prepare_themes(catalog, PipelineConfig())
            query = [rng.choice([f"w{i}" for i in range(20)]) for _ in range(6)]
            scores = score_by_bm25(query, prepared.index)
            top = prepared.by_id[select_top(scores[prepared.by_id], len(docs))]
            got = [prepared.index.doc_ids[i] for i in top]
            assert got == bm25_rank_brute(docs, query)


def test_scores_match_brute_force_both_variants():
    rng = random.Random(99)
    for _ in range(60):
        docs = toy_corpus(rng)
        query = [rng.choice([f"w{i}" for i in range(20)]) for _ in range(rng.randint(1, 8))]
        for variant in ("nonnegative", "epsilon_floor"):
            params = Bm25Params(idf_variant=variant)
            index = build_index(list(docs.items()), params)
            for doc_id in docs:
                expected = bm25_score_brute(docs, query, doc_id, variant=variant)
                assert score(index, query, doc_id) == pytest.approx(expected, abs=1e-9)
