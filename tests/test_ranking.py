from __future__ import annotations

import csv
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import make_appeals, make_themes, read_rankings, write_embeddings
from themerank import ranking
from themerank.bm25 import Bm25Params
from themerank.config import ExperimentGrid, cell_config
from themerank.corpus import AppealRecord, ThemeCatalog, ThemeRecord, gold_labels, load_appeals, load_themes
from themerank.ranking import (
    REPRESENTATIONS,
    SIMILARITY_METHODS,
    PipelineConfig,
    PipelineError,
    RankedThemeList,
    classify_appeal,
    classify_corpus,
    classify_grid,
    prepare_themes,
    write_rankings,
)
from themerank.similarity import EmbeddingTable
from themerank.textproc import PreprocessConfig, default_removal_rules, segment_sentences, tokenize
from themerank.lexrank import SummaryConfig, summarize


def catalog_of(*pairs) -> ThemeCatalog:
    return ThemeCatalog(ThemeRecord(t, text) for t, text in pairs)


SEVEN_THEMES = catalog_of(
    ("T1", "prescrição intercorrente execução fiscal"),
    ("T2", "honorários advocatícios sucumbência"),
    ("T3", "contribuição previdenciária servidor"),
    ("T4", "dano moral indenização atraso"),
    ("T5", "correção monetária expurgos inflacionários"),
    ("T6", "multa administrativa trânsito"),
    ("T7", "benefício assistencial deficiência"),
)

# preprocess fields in normal form, and appeals that each of them changes:
# core markers, digit runs, the guard on "Art." and the stopword "é"
NORMAL_FIELDS = dict(
    stopwords=frozenset({"a", "o", "é"}),
    removal_patterns=default_removal_rules(),
    core_start_markers=("DAS RAZÕES",),
    core_end_markers=("DO PEDIDO",),
    abbreviations=frozenset({"art", "fls"}),
)
MARKED_APPEALS = [
    AppealRecord(
        "A1",
        "Processo 2019. DAS RAZÕES A execução fiscal é antiga. Veja o Art. 5 da lei de 1990. "
        "Há prescrição intercorrente. DO PEDIDO Multa de trânsito.",
    ),
    AppealRecord(
        "A2",
        "DAS RAZÕES Os honorários advocatícios é que pesam. Fls. 12 mostram a sucumbência. "
        "O dano moral é pedido. DO PEDIDO Benefício assistencial.",
    ),
]

PLAIN_CONFIG = PipelineConfig(
    preprocess=PreprocessConfig(remove_terms=False),
    representation="fulltext",
    summary=SummaryConfig(size=2),
)


class TestClassifyAppeal:
    def test_default_k_returns_six(self):
        appeal = AppealRecord("A1", "Discute-se a prescrição intercorrente na execução fiscal.")
        ranked = classify_appeal(appeal, SEVEN_THEMES, PLAIN_CONFIG)
        assert len(ranked.entries) == 6
        assert ranked.entries[0][0] == "T1"

    def test_singleton_catalog_always_rank_one(self):
        catalog = catalog_of(("T1", "qualquer tema"))
        appeal = AppealRecord("A1", "Texto sem relação alguma com o tema.")
        for representation in ("fulltext", "lexrank", "guided_lexrank"):
            config = replace(PLAIN_CONFIG, representation=representation)
            ranked = classify_appeal(appeal, catalog, config)
            assert tuple(t for t, _ in ranked.entries) == ("T1",)

    def test_equal_scores_ascending_theme_id(self):
        catalog = catalog_of(
            ("T5", "tema alfa"),
            ("T3", "tema beta"),
            ("T1", "gama delta"),
            ("T4", "eta teta"),
            ("T2", "zeta iota"),
        )
        ranked = classify_appeal(AppealRecord("A1", "Tema."), catalog, PLAIN_CONFIG)
        assert tuple(t for t, _ in ranked.entries) == ("T3", "T5", "T1", "T2", "T4")
        scores = [score for _, score in ranked.entries]
        assert scores[0] == scores[1] > 0.0 and scores[2:] == [0.0, 0.0, 0.0]

    def test_all_zero_scores_fail(self):
        appeal = AppealRecord("A1", "Palavras totalmente desconhecidas xptoum xptodois.")
        with pytest.raises(PipelineError, match="scores 0 against every theme"):
            classify_appeal(appeal, SEVEN_THEMES, PLAIN_CONFIG)

    def test_scores_non_increasing_and_ids_in_catalog(self):
        appeal = AppealRecord(
            "A1",
            "A execução fiscal prescreveu. Honorários advocatícios foram fixados depois.",
        )
        ranked = classify_appeal(appeal, SEVEN_THEMES, PLAIN_CONFIG)
        scores = [score for _, score in ranked.entries]
        assert scores == sorted(scores, reverse=True)
        assert all(theme_id in SEVEN_THEMES for theme_id, _ in ranked.entries)

    def test_k_truncates(self):
        appeal = AppealRecord("A1", "Qualquer texto sobre execução fiscal serve.")
        ranked = classify_appeal(appeal, SEVEN_THEMES, replace(PLAIN_CONFIG, k=2))
        assert len(ranked.entries) == 2

    def test_fulltext_ignores_summary_size(self):
        appeal = AppealRecord(
            "A1",
            "Primeira frase sobre prescrição. Segunda frase sobre honorários. "
            "Terceira frase sobre multa. Quarta frase sobre dano.",
        )
        small = replace(PLAIN_CONFIG, summary=SummaryConfig(size=1))
        large = replace(PLAIN_CONFIG, summary=SummaryConfig(size=50))
        assert classify_appeal(appeal, SEVEN_THEMES, small) == classify_appeal(
            appeal, SEVEN_THEMES, large
        )

    def test_summary_size_changes_lexrank_inputs(self):
        text = (
            "A prescrição intercorrente domina o processo. "
            "A prescrição intercorrente aparece de novo. "
            "A prescrição intercorrente é o centro da lide. "
            "Honorários advocatícios surgem uma única vez."
        )
        appeal = AppealRecord("A1", text)
        config = replace(
            PLAIN_CONFIG,
            representation="guided_lexrank",
            summary=SummaryConfig(size=1, alpha=1.0, beta=1.0),
        )
        ranked = classify_appeal(appeal, SEVEN_THEMES, config)
        assert ranked.entries[0][0] == "T1"

    def test_empty_after_preprocessing_rejected(self):
        config = replace(PLAIN_CONFIG, preprocess=PreprocessConfig(remove_terms=True))
        appeal = AppealRecord("A1", "a de 1234567 na")
        with pytest.raises(PipelineError, match="empty after preprocessing"):
            classify_appeal(appeal, SEVEN_THEMES, config)

    def test_memo_holds_the_last_analysis_only(self):
        appeal = AppealRecord("A1", "Discute-se a prescrição intercorrente na execução fiscal.")
        removing = replace(PLAIN_CONFIG, preprocess=PreprocessConfig(remove_terms=True))
        memo = []
        for config in (PLAIN_CONFIG, removing, removing):
            assert classify_appeal(appeal, SEVEN_THEMES, config, memo=memo) == classify_appeal(
                appeal, SEVEN_THEMES, config
            )
        assert [analysis.preprocess for analysis in memo] == [removing.preprocess]

    def test_guided_without_alpha_beta_invalid(self):
        with pytest.raises(ValueError, match="alpha \\+ beta > 0"):
            PipelineConfig(summary=SummaryConfig(alpha=0.0, beta=0.0))

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: PipelineConfig(k=2.5), "k"),
            (lambda: SummaryConfig(size=2.5), "size"),
            (lambda: SummaryConfig(size="15"), "size"),
            (lambda: SummaryConfig(centrality="continuous", max_iterations=2.5), "max_iterations"),
            pytest.param(lambda: PipelineConfig(k=True), "k", id="bool-k"),
        ],
    )
    def test_non_integer_count_refused_at_construction(self, make, name):
        # it would fail as a slice bound or a range in every appeal of the
        # batch; a bool would count as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            make()

    def test_summary_cells_summarize_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(ranking, "summarize", counted)
        appeal = AppealRecord("A1", "Primeira frase sobre execução fiscal. Segunda frase do recurso.")
        for representation, expected in (("lexrank", 1), ("guided_lexrank", 1), ("fulltext", 0)):
            calls.clear()
            classify_appeal(appeal, SEVEN_THEMES, replace(PLAIN_CONFIG, representation=representation))
            assert len(calls) == expected, representation


class TestCosinePath:
    def test_tfidf_fallback(self):
        appeal = AppealRecord("A1", "Discute-se a prescrição intercorrente na execução fiscal.")
        config = replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source="tfidf")
        ranked = classify_appeal(appeal, SEVEN_THEMES, config)
        assert ranked.entries[0][0] == "T1"
        assert all(-1.0 <= score <= 1.0 for _, score in ranked.entries)

    def test_no_embedding_source_scores_by_tfidf(self):
        appeal = AppealRecord("A1", "Discute-se a prescrição intercorrente na execução fiscal.")
        config = replace(PLAIN_CONFIG, similarity_method="cosine")
        assert config.embedding_source is None
        tfidf = replace(config, embedding_source="tfidf")
        assert classify_appeal(appeal, SEVEN_THEMES, config) == classify_appeal(
            appeal, SEVEN_THEMES, tfidf
        )

    def test_embedding_file_path(self, tmp_path):
        catalog = catalog_of(("T1", "um"), ("T2", "dois"))
        table = EmbeddingTable(
            dimension=2,
            vectors={
                "A1": np.array([1.0, 0.0]),
                "T1": np.array([0.9, 0.1]),
                "T2": np.array([0.0, 1.0]),
            },
        )
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)
        config = replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=str(path))
        appeal = AppealRecord("A1", "tanto faz, os vetores decidem")
        ranked = classify_appeal(appeal, catalog, config)
        assert tuple(t for t, _ in ranked.entries) == ("T1", "T2")

    def test_embedding_file_cell_builds_no_summary(self, tmp_path, monkeypatch):
        catalog = catalog_of(("T1", "um"), ("T2", "dois"))
        table = EmbeddingTable(
            dimension=2,
            vectors={"A1": np.array([0.0, 1.0]), "T1": np.array([1.0, 0.0]), "T2": np.array([0.1, 0.9])},
        )
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)

        def no_summary(*args, **kwargs):
            raise AssertionError("an embedding-file cell selected a summary")

        monkeypatch.setattr(ranking, "summarize", no_summary)
        appeal = AppealRecord("A1", "Primeira frase sobre execução fiscal. Segunda frase do recurso.")
        for representation in REPRESENTATIONS:
            config = replace(
                PLAIN_CONFIG,
                representation=representation,
                similarity_method="cosine",
                embedding_source=str(path),
            )
            ranked = classify_appeal(appeal, catalog, config)
            assert tuple(t for t, _ in ranked.entries) == ("T2", "T1")

    def test_missing_appeal_embedding(self, tmp_path):
        catalog = catalog_of(("T1", "um"))
        table = EmbeddingTable(dimension=2, vectors={"T1": np.array([1.0, 0.0])})
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)
        config = replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=str(path))
        appeal = AppealRecord("A404", "texto")
        with pytest.raises(PipelineError, match="no embedding"):
            classify_appeal(appeal, catalog, config)

    def test_missing_theme_embedding(self, tmp_path):
        catalog = catalog_of(("T1", "um"), ("T2", "dois"))
        table = EmbeddingTable(
            dimension=2, vectors={"A1": np.array([1.0, 0.0]), "T1": np.array([0.5, 0.5])}
        )
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)
        config = replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=str(path))
        with pytest.raises(PipelineError, match="theme 'T2'"):
            classify_appeal(AppealRecord("A1", "texto"), catalog, config)

    def test_zero_norm_appeal_embedding_blames_the_appeal(self, tmp_path):
        catalog = catalog_of(("T1", "um"), ("T2", "dois"))
        table = EmbeddingTable(
            dimension=2,
            vectors={
                "A1": np.array([0.0, 0.0]),
                "T1": np.array([0.5, 0.5]),
                "T2": np.array([0.0, 1.0]),
            },
        )
        path = tmp_path / "emb.tsv"
        write_embeddings(path, table)
        config = replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=str(path))
        with pytest.raises(PipelineError) as raised:
            classify_appeal(AppealRecord("A1", "texto"), catalog, config)
        assert str(raised.value) == f"embedding in {path} has zero norm"


class TestClassifyCorpus:
    def test_two_in_two_out_order_preserved(self):
        appeals = [
            AppealRecord("A1", "prescrição intercorrente execução"),
            AppealRecord("A2", "honorários advocatícios sucumbência"),
        ]
        results, failures = classify_corpus(appeals, SEVEN_THEMES, PLAIN_CONFIG)
        assert [r.appeal_id for r in results] == ["A1", "A2"]
        assert failures == []

    def test_failure_logged_not_fatal(self):
        config = replace(PLAIN_CONFIG, preprocess=PreprocessConfig(remove_terms=True))
        appeals = [
            AppealRecord("A1", "discute-se prescrição intercorrente na execução fiscal"),
            AppealRecord("A2", "a de 1234567 na"),
        ]
        results, failures = classify_corpus(appeals, SEVEN_THEMES, config)
        assert [r.appeal_id for r in results] == ["A1"]
        assert len(failures) == 1 and "A2" in failures[0]

    def test_parallel_matches_sequential(self, synthetic_corpus_100):
        appeals_path, themes_path = synthetic_corpus_100
        appeals = load_appeals(appeals_path)[:24]
        catalog = load_themes(themes_path)
        config = PipelineConfig()
        sequential, _ = classify_corpus(appeals, catalog, config, parallel=1)
        parallel, _ = classify_corpus(appeals, catalog, config, parallel=4)
        assert sequential == parallel

    def test_empty_catalog_rejected(self):
        with pytest.raises(PipelineError, match="empty"):
            prepare_themes(ThemeCatalog([]), PLAIN_CONFIG)

    def test_failure_logged_in_parallel_mode(self):
        config = replace(PLAIN_CONFIG, preprocess=PreprocessConfig(remove_terms=True))
        appeals = [
            AppealRecord("A1", "discute-se prescrição intercorrente na execução fiscal"),
            AppealRecord("A2", "a de 1234567 na"),
            AppealRecord("A3", "honorários advocatícios em sucumbência recursal"),
        ]
        results, failures = classify_corpus(appeals, SEVEN_THEMES, config, parallel=2)
        assert [r.appeal_id for r in results] == ["A1", "A3"]
        assert len(failures) == 1 and "A2" in failures[0]

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(
                dict(
                    stopwords=["a", "o", "é"],
                    removal_patterns=list(default_removal_rules()),
                    core_start_markers=["DAS RAZÕES"],
                    core_end_markers=["DO PEDIDO"],
                    abbreviations=["art", "fls"],
                ),
                id="lists",
            ),
            pytest.param(
                dict(
                    stopwords={"a", "o", "é"},
                    removal_patterns=iter(default_removal_rules()),  # ordered: not a set
                    core_start_markers={"DAS RAZÕES"},
                    core_end_markers={"DO PEDIDO"},
                    abbreviations={"art", "fls"},
                ),
                id="sets",
            ),
            pytest.param(
                dict(
                    stopwords=("a", "o", "é"),
                    core_start_markers=("DAS RAZÕES",),
                    core_end_markers=("DO PEDIDO",),
                    abbreviations=("art", "fls"),
                ),
                id="tuples",
            ),
            pytest.param(dict(NORMAL_FIELDS, abbreviations=("Art.", "FLS.")), id="unkeyed-abbreviations"),
            # é as e + U+0301, which composes alike under Unicode 13.0 and 14.0
            pytest.param(dict(NORMAL_FIELDS, stopwords={"a", "o", "e\u0301"}), id="decomposed-stopword"),
        ],
    )
    def test_config_built_in_code_runs_as_its_normal_form(self, fields):
        # the config settles its own fields: built from any collections, it
        # equals the normal form and ranks alike, in a worker process too
        normal = PreprocessConfig(**NORMAL_FIELDS)
        given = PreprocessConfig(**fields)
        assert given == normal
        assert given.folded_stopwords == normal.folded_stopwords == frozenset({"a", "o", "é"})
        # sets in normal form are kept: a grid's cells share them
        cell = replace(given, remove_terms=False)
        assert cell.stopwords is given.stopwords and cell.abbreviations is given.abbreviations
        expected = classify_corpus(MARKED_APPEALS, SEVEN_THEMES, PipelineConfig(preprocess=normal))
        assert expected[1] == [] and len(expected[0]) == 2
        config = PipelineConfig(preprocess=given)
        assert classify_corpus(MARKED_APPEALS, SEVEN_THEMES, config) == expected
        outcome = classify_grid(MARKED_APPEALS, SEVEN_THEMES, [config], parallel=2)[0]
        assert (outcome.results, outcome.failures) == expected

    def test_memory_error_is_a_per_appeal_failure(self, monkeypatch):
        classify = ranking.classify_appeal

        def exhausted_on_a2(appeal, *args, **kwargs):
            if appeal.id == "A2":
                raise MemoryError("out of memory")
            return classify(appeal, *args, **kwargs)

        monkeypatch.setattr(ranking, "classify_appeal", exhausted_on_a2)
        appeals = [AppealRecord(f"A{i}", "prescrição intercorrente execução") for i in (1, 2, 3)]
        results, failures = classify_corpus(appeals, SEVEN_THEMES, PLAIN_CONFIG)
        assert [r.appeal_id for r in results] == ["A1", "A3"]
        assert failures == ["A2: out of memory"]


def _standalone(appeal, catalog, config):
    """The slow path: one classify_appeal with no shared state."""
    try:
        return ("ok", classify_appeal(appeal, catalog, config))
    except (PipelineError, ValueError, RuntimeError) as exc:
        return ("err", f"{appeal.id}: {exc}")


@st.composite
def grid_runs(draw):
    """A tests/synth.py corpus (sometimes with an appeal that preprocessing
    empties) and the configs of a random grid under random weights."""
    themes = make_themes(draw(st.integers(2, 12)))
    rows = make_appeals(
        themes,
        draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        gold_copies=draw(st.integers(1, 4)),
        max_quotes=draw(st.integers(0, 4)),
        filler_sentences=draw(st.integers(0, 12)),
    )
    appeals = [AppealRecord(appeal_id, text, gold) for appeal_id, text, gold in rows]
    if draw(st.booleans()):
        appeals.append(AppealRecord("A_empty", "a de 1234567 na. O que se."))
    grid = ExperimentGrid(
        preprocess_options=tuple(draw(st.lists(st.booleans(), min_size=1, max_size=2, unique=True))),
        representations=tuple(
            draw(st.lists(st.sampled_from(REPRESENTATIONS), min_size=1, max_size=3, unique=True))
        ),
        summary_sizes=tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))),
        similarity_methods=tuple(
            draw(st.lists(st.sampled_from(SIMILARITY_METHODS), min_size=1, max_size=2, unique=True))
        ),
    )
    weight = st.floats(0.0, 3.0, allow_nan=False)
    weights = draw(
        st.lists(st.tuples(weight, weight).filter(lambda ab: sum(ab) > 0), min_size=1, max_size=2)
    )
    base = PipelineConfig(embedding_source="tfidf", k=draw(st.integers(1, 8)))
    configs = [
        cell_config(replace(base, summary=replace(base.summary, alpha=alpha, beta=beta)), cell)
        for alpha, beta in weights
        for cell in grid.cells()
    ]
    catalog = ThemeCatalog(ThemeRecord(theme_id, text) for theme_id, text in themes)
    return appeals, catalog, configs


_SUMMARY_CHARS = st.sampled_from("ΣΑσ\u0301\u0307İ\u00a0 .'abcDE1é") | st.characters(
    blacklist_categories=("Cs",)
)


class TestSummaryTokens:
    """A summary's TF-IDF cosine comes from its sentences' stored tokens,
    which equal the tokens of those sentences joined by spaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.text(_SUMMARY_CHARS, min_size=1, max_size=30), min_size=1, max_size=12),
        st.sampled_from(["lexrank", "guided_lexrank"]),
        st.integers(1, 8),
    )
    def test_equal_tokens_of_summary_text(self, pieces, representation, size):
        appeal = AppealRecord("A1", ". ".join(pieces) + " prescrição")  # at least one token
        analysis = ranking.AppealAnalysis(appeal, PreprocessConfig(remove_terms=False))
        config = replace(
            PLAIN_CONFIG,
            representation=representation,
            summary=SummaryConfig(size=size),
            similarity_method="cosine",
        )
        prepared = prepare_themes(SEVEN_THEMES, config)
        theme_index = prepared.index if representation == "guided_lexrank" else None
        summary = summarize(analysis.sentences, config.summary, theme_index)
        texts = segment_sentences(analysis.cleaned, analysis.preprocess)
        tokens = tokenize(" ".join(texts[i] for i in sorted(summary)))
        if not tokens:
            with pytest.raises(PipelineError, match="no tokens"):
                ranking._scores(appeal, analysis, config, prepared)
            return
        scores = ranking._scores(appeal, analysis, config, prepared)
        assert scores.tobytes() == prepared.tfidf.scores(tokens).tobytes()

    def test_rows_joined_in_document_order(self):
        # the summary's selection order is not document order, and the query
        # norm sums its terms in first-occurrence order: the join order shows
        appeal = AppealRecord(
            "A1",
            "Beta alfa alfa intercorrente honorários. Dano. "
            "Dano trânsito sucumbência alfa. Intercorrente dano.",
        )
        config = replace(
            PLAIN_CONFIG,
            representation="guided_lexrank",
            summary=SummaryConfig(size=3),
            similarity_method="cosine",
        )
        analysis = ranking.AppealAnalysis(appeal, config.preprocess)
        prepared = prepare_themes(SEVEN_THEMES, config)
        rows = summarize(analysis.sentences, config.summary, prepared.index)
        assert rows == (2, 3, 0)
        joined = tokenize(
            "Beta alfa alfa intercorrente honorários. "
            "Dano trânsito sucumbência alfa. Intercorrente dano."
        )
        scores = ranking._scores(appeal, analysis, config, prepared)
        assert scores.tobytes() == prepared.tfidf.scores(joined).tobytes()


# every str.isspace character (none lies above U+3000), sentence terminals,
# "_", combining marks, a final-sigma context, Hangul jamo and characters
# whose case mapping or NFC form changes their length or code point
_WHITESPACE = "".join(ch for ch in map(chr, range(0x3001)) if ch.isspace())
_REUSE_CHARS = _WHITESPACE + ".!?…_\u0301\u0307\u0327ΑΣ\u1100\u1161\u11a8İßſ\u212aﬁ\u2126aE1"
_REUSE_WORDS = [word for theme in SEVEN_THEMES for word in theme.text.split()] + [
    "Prescrição", "FISCAL", "Dano", "1234567", "de", "Art.",
]
_REUSE_TEXT = st.lists(
    st.sampled_from(_REUSE_WORDS) | st.text(st.sampled_from(_REUSE_CHARS), min_size=1, max_size=4),
    min_size=1,
    max_size=40,
).map("".join)


class TestFulltextReuse:
    """A fulltext cell whose analysis already holds its sentences scores from
    them, without tokenizing again, to the bits of tokenizing the text."""

    @settings(max_examples=300, deadline=None)
    @given(_REUSE_TEXT, st.booleans(), st.sampled_from(SIMILARITY_METHODS))
    def test_scores_from_sentences_equal_tokenize_path(self, text, remove_terms, method):
        appeal = AppealRecord("A1", text)
        preprocess = PreprocessConfig(remove_terms=remove_terms)
        config = replace(PLAIN_CONFIG, preprocess=preprocess, similarity_method=method)
        prepared = prepare_themes(SEVEN_THEMES, config)
        try:
            fresh = ranking.AppealAnalysis(appeal, preprocess)
        except PipelineError:
            return  # nothing left after preprocessing, whichever path
        segmented = ranking.AppealAnalysis(appeal, preprocess)
        segmented.sentences  # as a summary cell of the same memo leaves it

        def outcome(analysis):
            try:
                return ranking._scores(appeal, analysis, config, prepared).tobytes()
            except PipelineError as exc:
                return str(exc)

        slow = outcome(fresh)
        assert "sentences" not in vars(fresh)
        with mock.patch.object(ranking, "tokenize", side_effect=AssertionError("tokenized")):
            assert outcome(segmented) == slow


_ORDER_CONFIGS = [
    PipelineConfig(),
    PipelineConfig(representation="lexrank", summary=SummaryConfig(size=3)),
    PipelineConfig(representation="fulltext"),
    PipelineConfig(representation="fulltext", similarity_method="cosine"),
    PipelineConfig(similarity_method="cosine", preprocess=PreprocessConfig(remove_terms=False)),
    PipelineConfig(bm25=Bm25Params(idf_variant="epsilon_floor")),
]


def _rankings_by_appeal(appeals, catalog, config, parallel) -> list[str]:
    """rankings.csv lines, the header first, then sorted by appeal id."""
    results, _ = classify_corpus(appeals, catalog, config, parallel)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rankings.csv"
        write_rankings(path, results, gold_labels(appeals, catalog))
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return [header, *sorted(rows, key=lambda row: row.split(",", 1)[0])]


class TestOrderInvariance:
    """Reordering the catalog or the appeals changes no ranking: ids, ranks
    and score bits per appeal stay, at any parallelism."""

    @settings(max_examples=12, deadline=None)
    @given(st.data(), st.sampled_from(_ORDER_CONFIGS))
    def test_shuffled_catalog_and_appeals_rank_the_same(self, data, config):
        themes = make_themes(data.draw(st.integers(3, 12)))
        rows = make_appeals(themes, data.draw(st.integers(2, 6)), seed=data.draw(st.integers(0, 2**16)))
        appeals = [AppealRecord(appeal_id, text, gold) for appeal_id, text, gold in rows]
        catalog = ThemeCatalog(ThemeRecord(theme_id, text) for theme_id, text in themes)
        expected = _rankings_by_appeal(appeals, catalog, config, parallel=1)

        shuffled_catalog = ThemeCatalog(data.draw(st.permutations(list(catalog))))
        shuffled_appeals = data.draw(st.permutations(appeals))
        for parallel in (1, 2):
            assert _rankings_by_appeal(shuffled_appeals, shuffled_catalog, config, parallel) == expected


class TestClassifyGrid:
    @settings(max_examples=40, deadline=None)
    @given(grid_runs())
    def test_every_config_equals_standalone_classification(self, run):
        appeals, catalog, configs = run
        outcomes = classify_grid(appeals, catalog, configs)
        assert len(outcomes) == len(configs)
        for config, outcome in zip(configs, outcomes):
            slow = [_standalone(appeal, catalog, config) for appeal in appeals]
            assert outcome.results == [payload for status, payload in slow if status == "ok"]
            assert outcome.failures == [payload for status, payload in slow if status == "err"]
            assert outcome.seconds > 0

    def test_classify_corpus_is_a_one_config_grid(self, synthetic_corpus_100):
        appeals_path, themes_path = synthetic_corpus_100
        appeals = load_appeals(appeals_path)[:6]
        catalog = load_themes(themes_path)
        outcome = classify_grid(appeals, catalog, [PipelineConfig()], parallel=2)[0]
        assert classify_corpus(appeals, catalog, PipelineConfig()) == (outcome.results, outcome.failures)

    @pytest.mark.parametrize("parallel, count, workers", [(500, 2, [2]), (2, 2, [2]), (500, 1, []), (1, 2, [])])
    def test_no_more_workers_than_appeals(self, monkeypatch, parallel, count, workers):
        # a pool starts all of its workers at the first task: this stand-in
        # records how many were asked for and runs the tasks in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, items, chunksize):
                return map(function, items)

        monkeypatch.setattr(ranking, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(ranking, "_WORKER_STATE", {})
        appeals = MARKED_APPEALS[:count]
        outcome = classify_grid(appeals, SEVEN_THEMES, [PLAIN_CONFIG], parallel)[0]
        assert started == workers
        assert (outcome.results, outcome.failures) == classify_corpus(appeals, SEVEN_THEMES, PLAIN_CONFIG)

    def test_no_configs_no_outcomes(self):
        assert classify_grid([AppealRecord("A1", "texto")], SEVEN_THEMES, []) == []

    def test_one_theme_side_serves_every_config(self, tmp_path, monkeypatch):
        vectors = {record.id: np.eye(2)[i % 2] for i, record in enumerate([*MARKED_APPEALS, *SEVEN_THEMES])}
        path = tmp_path / "emb.tsv"
        write_embeddings(path, EmbeddingTable(dimension=2, vectors=vectors))
        configs = [
            replace(PLAIN_CONFIG, representation="guided_lexrank"),
            replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=str(path)),
            replace(PLAIN_CONFIG, similarity_method="cosine"),
        ]
        expected = [
            [classify_appeal(appeal, SEVEN_THEMES, config) for appeal in MARKED_APPEALS] for config in configs
        ]
        monkeypatch.setattr(ranking, "prepare_themes", mock.Mock(wraps=prepare_themes))
        outcomes = classify_grid(MARKED_APPEALS, SEVEN_THEMES, configs)
        assert ranking.prepare_themes.call_count == 1
        assert [outcome.results for outcome in outcomes] == expected

    @pytest.mark.parametrize(
        "configs",
        [
            [PLAIN_CONFIG, replace(PLAIN_CONFIG, bm25=Bm25Params(k1=1.2))],
            [
                replace(PLAIN_CONFIG, similarity_method="cosine", embedding_source=name)
                for name in ("a.tsv", "b.tsv")
            ],
        ],
        ids=["bm25", "embedding-files"],
    )
    def test_two_theme_sides_refused_before_any_appeal(self, monkeypatch, configs):
        monkeypatch.setattr(ranking, "classify_appeal", mock.Mock())
        with pytest.raises(ValueError, match="must share bm25 and name at most one embedding file"):
            classify_grid(MARKED_APPEALS, SEVEN_THEMES, configs)
        assert ranking.classify_appeal.call_count == 0

    def test_representation_without_tokens_fails_under_every_method(self):
        # "P" keeps text but no token; "S"'s size-1 summary is its token-less "—.",
        # and its full text shares no term with the catalog
        appeals = [AppealRecord("P", "... !!! ??? --- ;;;"), AppealRecord("S", "—. Alfa beta. Gama delta.")]
        configs = [
            replace(
                PLAIN_CONFIG,
                preprocess=PreprocessConfig(remove_terms=remove_terms),
                representation=representation,
                summary=SummaryConfig(size=1),
                similarity_method=method,
            )
            # summaries first: their analysis is what the fulltext cells then score from
            for remove_terms in (True, False)
            for representation in ("guided_lexrank", "lexrank", "fulltext")
            for method in SIMILARITY_METHODS
        ]
        for config, outcome in zip(configs, classify_grid(appeals, SEVEN_THEMES, configs)):
            fulltext = config.representation == "fulltext"
            reason = "scores 0 against every theme" if fulltext else "no tokens left for vectorization"
            assert outcome.results == []
            assert outcome.failures == ["P: no tokens left for vectorization", f"S: {reason}"]
            # fulltext alone tokenizes the cleaned text: no analysis holds sentences
            alone = replace(config, representation="fulltext")
            with pytest.raises(PipelineError, match="no tokens left"):
                classify_appeal(appeals[0], SEVEN_THEMES, alone)


    def test_no_term_shared_with_the_catalog_fails_in_every_cell(self):
        appeals = [AppealRecord("Z", "Alfa beta gama."), AppealRecord("A", "Alfa execução fiscal.")]
        configs = [
            replace(
                PLAIN_CONFIG,
                preprocess=PreprocessConfig(remove_terms=remove_terms),
                representation=representation,
                similarity_method=method,
            )
            for remove_terms in (True, False)
            for representation in REPRESENTATIONS
            for method in SIMILARITY_METHODS
        ]
        outcomes = classify_grid(appeals, SEVEN_THEMES, configs)
        assert len(outcomes) == 12
        for outcome in outcomes:
            assert outcome.failures == ["Z: scores 0 against every theme"]
            assert [result.appeal_id for result in outcome.results] == ["A"]
            assert outcome.results[0].entries[0][0] == "T1"


class TestRankingsFile:
    def test_round_trip_and_flags(self, tmp_path):
        appeals = [
            AppealRecord("A1", "prescrição intercorrente execução fiscal", "T1"),
            AppealRecord("A2", "honorários advocatícios sucumbência", "T404"),
        ]
        results, _ = classify_corpus(appeals, SEVEN_THEMES, PLAIN_CONFIG)
        gold = gold_labels(appeals, SEVEN_THEMES)
        path = tmp_path / "rankings.csv"
        write_rankings(path, results, gold)

        text = path.read_text(encoding="utf-8")
        header = text.splitlines()[0]
        assert header == "appeal_id,rank,theme_id,score,gold_theme_id,hit_flag"
        first = text.splitlines()[1].split(",")
        assert first[0] == "A1" and first[1] == "1" and first[2] == "T1"
        assert first[4] == "T1" and first[5] == "1"

        loaded = read_rankings(path)
        assert loaded == results

    def test_hit_flag_zero_without_gold(self, tmp_path):
        results = [RankedThemeList("A1", (("T1", 1.0),))]
        path = tmp_path / "rankings.csv"
        write_rankings(path, results, gold=None)
        row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[4] == "" and row[5] == "0"

    def test_carriage_return_in_ids_round_trips(self, tmp_path):
        # csv quotes only the line terminator's characters, and a lone "\r"
        # would end the row on reading
        results = [RankedThemeList("A\r1", (("T\r1", 0.5), ("T2", 0.25)))]
        path = tmp_path / "rankings.csv"
        write_rankings(path, results, {"A\r1": "T\r1"})
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:] == [
            ["A\r1", "1", "T\r1", "0.5", "T\r1", "1"],
            ["A\r1", "2", "T2", "0.25", "T\r1", "0"],
        ]
        assert read_rankings(path) == results
