"""Acceptance suite: one check per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Checks against the published corpus need the files locally; point
THEMERANK_APPEALS and THEMERANK_THEMES at them to enable those tests.
"""

from __future__ import annotations

import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    bm25_score_brute,
    degree_brute,
    guided_selection_brute,
    stationary_brute,
)
from themerank.bm25 import Bm25Params, build_index, scores_for_all
from themerank.corpus import corpus_stats, gold_labels, load_appeals, load_themes
from themerank.lexrank import (
    SentenceAnalysis,
    SummaryConfig,
    continuous_centrality,
    degree_centrality,
    guidance_scores,
    summarize,
)
from themerank.metrics import evaluate_run, f1
from themerank.ranking import PipelineConfig, classify_corpus, write_rankings
from test_lexrank import graph_from_dense, graph_from_rows, random_rows
from test_metrics import assert_matches_oracles, random_batch

APPEALS_ENV = os.environ.get("THEMERANK_APPEALS")
THEMES_ENV = os.environ.get("THEMERANK_THEMES")
needs_published_corpus = pytest.mark.skipif(
    not (APPEALS_ENV and THEMES_ENV),
    reason="set THEMERANK_APPEALS and THEMERANK_THEMES to the published corpus files",
)


def _load_published_appeals():
    """Published appeals, honoring THEMERANK_APPEAL_COLUMNS=id,text,theme."""
    columns = os.environ.get("THEMERANK_APPEAL_COLUMNS", "id,text,theme").split(",")
    return load_appeals(
        APPEALS_ENV, id_col=columns[0], text_col=columns[1], theme_col=columns[2]
    )


def _load_published_themes():
    columns = os.environ.get("THEMERANK_THEME_COLUMNS", "id,text").split(",")
    return load_themes(THEMES_ENV, id_col=columns[0], text_col=columns[1])


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "evaluate_run matches a brute-force evaluator on 1000 random rankings"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(200):
            assert_matches_oracles(*random_batch(rng, 5))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"metric oracle sweep took {elapsed:.2f}s"


def test_criterion_2_f1_harmonic_mean_identities():
    with criterion(2, "aggregate F1 reproduces the reference score pairs"):
        assert abs(f1(0.5345, 0.7575) - 0.6268) <= 0.0002
        assert abs(f1(0.5498, 0.7545) - 0.6361) <= 0.0002


def test_criterion_3_centrality_numerics():
    with criterion(3, "continuous centrality matches a dense eigen-solve; degree is exact"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(5, 11))
            # continuous centrality walks N Nᵀ from the sentence rows N
            rows = graph_from_rows(random_rows(rng, n))
            gamma = continuous_centrality(rows, SummaryConfig(damping=0.85, tolerance=1e-8))
            expected = stationary_brute(rows.weights.toarray(), 0.85)
            assert np.all(np.abs(gamma - expected) < 1e-6)
            assert abs(gamma.sum() - 1.0) <= 1e-9

            weights = rng.uniform(0.0, 1.0, (n, n))
            weights = (weights + weights.T) / 2.0
            np.fill_diagonal(weights, 1.0)
            degrees = degree_centrality(graph_from_dense(weights), 0.3)
            assert degrees.tolist() == degree_brute(weights.tolist(), 0.3)


def test_criterion_4_bm25_oracle():
    with criterion(4, "BM25 matches a direct formula transcription under both idf variants"):
        rng = random.Random(104)
        vocabulary = [f"w{i}" for i in range(20)]
        for _ in range(200):
            n_docs = rng.randint(1, 8)
            docs = {
                f"d{d}": [rng.choice(vocabulary) for _ in range(rng.randint(1, 25))]
                for d in range(n_docs)
            }
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 8))]
            for variant in ("nonnegative", "epsilon_floor"):
                params = Bm25Params(idf_variant=variant)
                index = build_index(list(docs.items()), params)
                scores = scores_for_all(index, query)
                for doc_id in docs:
                    got = scores[index.doc_ids.index(doc_id)]
                    expected = bm25_score_brute(docs, query, doc_id, variant=variant)
                    assert abs(got - expected) <= 1e-9
                    if variant == "nonnegative":
                        assert got >= 0.0


def _random_document(rng: random.Random):
    words = [f"w{i}" for i in range(14)]
    n = rng.randint(3, 9)
    token_lists = [[rng.choice(words) for _ in range(rng.randint(1, 8))] for _ in range(n)]
    sentences = [" ".join(toks) for toks in token_lists]
    themes = {
        f"T{t}": [rng.choice(words) for _ in range(rng.randint(2, 5))] for t in range(rng.randint(2, 5))
    }
    return token_lists, sentences, themes


def test_criterion_5_guided_limiting_cases():
    with criterion(5, "guided summaries honor the limiting cases and the brute-force combination"):
        rng = random.Random(105)
        for _ in range(50):
            token_lists, sentences, themes = _random_document(rng)
            index = build_index(list(themes.items()))
            size = rng.randint(1, len(sentences))
            analysis = SentenceAnalysis(sentences)

            plain = summarize(analysis, SummaryConfig(size=size))
            beta_zero = summarize(
                analysis,
                SummaryConfig(size=size, alpha=1.0, beta=0.0),
                theme_index=index,
            )
            assert set(beta_zero) == set(plain)

            alpha_zero = summarize(
                analysis,
                SummaryConfig(size=size, alpha=0.0, beta=1.0),
                theme_index=index,
            )
            sigma = guidance_scores(token_lists, index)
            by_sigma = sorted(range(len(sigma)), key=lambda i: (-sigma[i], i))[:size]
            assert list(alpha_zero) == by_sigma

            both = summarize(
                analysis,
                SummaryConfig(size=size, alpha=1.0, beta=1.0),
                theme_index=index,
            )
            expected = guided_selection_brute(token_lists, themes, 1.0, 1.0, size)
            assert list(both) == expected


def test_criterion_6_pipeline_determinism(synthetic_corpus_100, tmp_path):
    with criterion(6, "ranking files are byte-identical at parallelism 1, 4 and 8"):
        appeals_path, themes_path = synthetic_corpus_100
        appeals = load_appeals(appeals_path)
        catalog = load_themes(themes_path)
        config = PipelineConfig()
        gold = gold_labels(appeals, catalog)

        contents = []
        for parallel in (1, 4, 8):
            results, failures = classify_corpus(appeals, catalog, config, parallel=parallel)
            assert not failures
            path = tmp_path / f"rankings_p{parallel}.csv"
            write_rankings(path, results, gold)
            contents.append(path.read_bytes())
        assert contents[0] == contents[1] == contents[2]


GUIDED_CONFIG = PipelineConfig(
    representation="guided_lexrank",
    summary=SummaryConfig(size=15, alpha=1.0, beta=1.0),
    similarity_method="bm25",
    k=6,
)


def _recall_for(appeals, catalog, config, parallel=2):
    results, failures = classify_corpus(appeals, catalog, config, parallel=parallel)
    assert not failures, failures[:3]
    report = evaluate_run(results, gold_labels(appeals, catalog), config.k)
    return report


def test_criterion_7_summary_beats_fulltext_on_synthetic_corpus(synthetic_corpus_500):
    with criterion(7, "synthetic corpus: guided recall >= 0.70 and summary beats full text"):
        appeals_path, themes_path = synthetic_corpus_500
        appeals = load_appeals(appeals_path)
        catalog = load_themes(themes_path)
        assert len(appeals) == 500

        guided = _recall_for(appeals, catalog, GUIDED_CONFIG)
        fulltext = _recall_for(appeals, catalog, replace(GUIDED_CONFIG, representation="fulltext"))
        assert guided.recall_at_k >= 0.70, f"guided recall@6 {guided.recall_at_k:.4f}"
        assert guided.recall_at_k > fulltext.recall_at_k, (
            f"guided {guided.recall_at_k:.4f} vs fulltext {fulltext.recall_at_k:.4f}"
        )


@pytest.mark.network
@needs_published_corpus
def test_criterion_7_published_corpus_recall_and_ablation():
    with criterion(7, "published corpus: guided recall@6 >= 0.70 and summary beats full text"):
        appeals = load_appeals(APPEALS_ENV)
        catalog = load_themes(THEMES_ENV)
        guided = _recall_for(appeals, catalog, GUIDED_CONFIG, parallel=os.cpu_count() or 2)
        fulltext = _recall_for(
            appeals,
            catalog,
            replace(GUIDED_CONFIG, representation="fulltext"),
            parallel=os.cpu_count() or 2,
        )
        assert guided.recall_at_k >= 0.70
        assert guided.recall_at_k > fulltext.recall_at_k


def test_criterion_8_desk_scale_performance(synthetic_corpus_500):
    with criterion(8, "single-cell evaluation of 500 appeals finishes in under 2 minutes"):
        appeals_path, themes_path = synthetic_corpus_500
        appeals = load_appeals(appeals_path)
        catalog = load_themes(themes_path)
        started = time.perf_counter()
        report = _recall_for(appeals, catalog, GUIDED_CONFIG, parallel=min(8, os.cpu_count() or 1))
        elapsed = time.perf_counter() - started
        assert report.query_count == 500
        assert elapsed < 120.0, f"desk-scale evaluation took {elapsed:.1f}s"


@pytest.mark.network
@needs_published_corpus
def test_criterion_8_full_corpus_performance():
    with criterion(8, "single-cell evaluation of the full corpus finishes in under 30 minutes"):
        appeals = load_appeals(APPEALS_ENV)
        catalog = load_themes(THEMES_ENV)
        started = time.perf_counter()
        _recall_for(appeals, catalog, GUIDED_CONFIG, parallel=os.cpu_count() or 2)
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"full evaluation took {elapsed:.1f}s"


@pytest.mark.network
@needs_published_corpus
def test_criterion_9_published_corpus_statistics():
    with criterion(9, "corpus statistics reproduce the published reference values"):
        appeals = load_appeals(APPEALS_ENV)
        stats = corpus_stats(appeals)
        assert stats.doc_count == 7967
        assert stats.median_words == 3980
        assert stats.min_words == 92
        assert stats.max_words == 67944
        assert math.isclose(stats.mean_words, 4672.48, rel_tol=0.01)

        # as `themerank stats --input` reads a theme file: ids and raw text, no labels
        theme_stats = corpus_stats(load_appeals(THEMES_ENV, theme_col=None))
        assert theme_stats.doc_count == 190
        assert theme_stats.median_words == 36
        assert math.isclose(theme_stats.mean_words, 43.3, rel_tol=0.01)
