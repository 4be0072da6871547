"""End-to-end pipeline: preprocess an appeal, build its representation,
score it against the theme catalog and emit the ordered top-k suggestions.

Classification of a single appeal is a pure function of (appeal, catalog,
config), so corpus runs are byte-identical at any degree of parallelism.

Per appeal the work splits into an analysis, which depends only on the
preprocess settings (cleaned text, sentences, centrality, guidance), and a
cheap per-config selection and scoring tail. A grid of configs analyses each
appeal once per preprocess setting and derives every config from it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bm25 import Bm25Index, Bm25Params, build_index
from .corpus import AppealRecord, ThemeCatalog, write_records
from .lexrank import SentenceAnalysis, SummaryConfig, check_integer, select_top, summarize
from .similarity import EmbeddingCosine, TfidfCosine, load_embeddings, score_by_bm25
from .similarity import cosine, tfidf_vectors  # noqa: F401  perfbench/spans.py wraps them here
from .textproc import PreprocessConfig, extract_core, remove_noise, segment_sentences, tokenize

REPRESENTATIONS = ("fulltext", "lexrank", "guided_lexrank")
SIMILARITY_METHODS = ("bm25", "cosine")
TFIDF_FALLBACK = "tfidf"


class PipelineError(ValueError):
    """Raised when one appeal cannot be classified under the given config."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one classification run depends on."""

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    representation: str = "guided_lexrank"
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    similarity_method: str = "bm25"
    bm25: Bm25Params = field(default_factory=Bm25Params)
    k: int = 6
    embedding_source: str | None = None

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"representation must be one of {REPRESENTATIONS}, got {self.representation!r}"
            )
        if self.similarity_method not in SIMILARITY_METHODS:
            raise ValueError(
                f"similarity_method must be one of {SIMILARITY_METHODS}, "
                f"got {self.similarity_method!r}"
            )
        check_integer("k", self.k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.representation == "guided_lexrank" and self.summary.alpha + self.summary.beta <= 0:
            raise ValueError("guided_lexrank requires alpha + beta > 0")


@dataclass(frozen=True)
class RankedThemeList:
    """Ordered top-k theme suggestions for one appeal."""

    appeal_id: str
    entries: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class PreparedThemes:
    """Per-run shared state: the themes' BM25 index, which holds their term
    counts, and the cosine side of the run's embedding file, if it has one."""

    index: Bm25Index
    embeddings: EmbeddingCosine | None

    @cached_property
    def tfidf(self) -> TfidfCosine:
        """The TF-IDF cosine side over the index's term counts, built on
        first use: configs that share this state need not score by cosine."""
        return TfidfCosine(self.index.terms, self.index.counts)

    @cached_property
    def by_id(self) -> np.ndarray:
        """Catalog positions in ascending theme id, the order ties rank in."""
        ids = self.index.doc_ids
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _embedding_file(config: PipelineConfig) -> str | None:
    """The embedding file a config's theme side loads, if any: cosine with an
    ``embedding_source`` of None or ``"tfidf"`` scores by TF-IDF vectors."""
    if config.similarity_method == "cosine" and config.embedding_source != TFIDF_FALLBACK:
        return config.embedding_source
    return None


def prepare_themes(catalog: ThemeCatalog, config: PipelineConfig) -> PreparedThemes:
    """Build the read-only theme-side state shared by every appeal."""
    if len(catalog) == 0:
        raise PipelineError("theme catalog is empty")
    index = build_index([(theme.id, tokenize(theme.text)) for theme in catalog], config.bm25)
    embedding_file = _embedding_file(config)
    embeddings = None
    if embedding_file is not None:
        table = load_embeddings(embedding_file)
        embeddings = EmbeddingCosine(table, [theme.id for theme in catalog], embedding_file)
    return PreparedThemes(index=index, embeddings=embeddings)


class AppealAnalysis:
    """One appeal under one preprocess config: the cleaned text and, computed
    on first use, its sentence analysis."""

    def __init__(self, appeal: AppealRecord, preprocess: PreprocessConfig):
        core = extract_core(appeal.raw_text, preprocess)
        self.cleaned = remove_noise(core, preprocess)
        if not self.cleaned.strip():
            raise PipelineError("text empty after preprocessing")
        self.preprocess = preprocess

    @cached_property
    def sentences(self) -> SentenceAnalysis:
        return SentenceAnalysis(segment_sentences(self.cleaned, self.preprocess))


def _scores(
    appeal: AppealRecord, analysis: AppealAnalysis, config: PipelineConfig, prepared: PreparedThemes
) -> np.ndarray:
    """The appeal's score against every theme, in catalog order. An embedding
    file holds the appeal's vector, so that cell builds no representation."""
    embedding_file = _embedding_file(config)
    if embedding_file is not None:
        query = prepared.embeddings.table.vectors.get(appeal.id)
        if query is None:
            raise PipelineError(f"no embedding in {embedding_file}")
        try:
            return prepared.embeddings.scores(query)
        except ValueError as exc:
            raise PipelineError(str(exc)) from exc
    # cached_property keeps a computed analysis in the instance dict: a fulltext
    # cell segments no text that no summary cell has segmented yet. A
    # representation with no tokens reaches the one failure below, whatever
    # the similarity method, and so does an appeal with none before it is
    # summarized.
    if config.representation == "fulltext" and "sentences" not in vars(analysis):
        tokens = tokenize(analysis.cleaned)
        if config.similarity_method == "bm25" and tokens:
            return score_by_bm25(tokens, prepared.index)
    elif not analysis.sentences.terms:
        tokens = []
    else:
        sentences = analysis.sentences
        if config.representation == "fulltext":
            rows = range(len(sentences.tokens))
        else:
            theme_index = prepared.index if config.representation == "guided_lexrank" else None
            rows = summarize(sentences, config.summary, theme_index)
        if config.similarity_method == "bm25" and any(sentences.tokens[i] for i in rows):
            return sentences.bm25_scores(prepared.index, rows)
        # segmentation cuts only at whitespace runs and tokenize splits there,
        # so these are the tokens of the sentences' text joined in document order
        tokens = [token for i in sorted(rows) for token in sentences.tokens[i]]
    if not tokens:
        raise PipelineError("no tokens left for vectorization")
    return prepared.tfidf.scores(tokens)


def classify_appeal(
    appeal: AppealRecord,
    catalog: ThemeCatalog,
    config: PipelineConfig,
    prepared: PreparedThemes | None = None,
    memo: list[AppealAnalysis] | None = None,
) -> RankedThemeList:
    """Rank every theme for one appeal and truncate to the top k.

    Scores sort descending with ties broken by ascending theme id; scores of
    0 against every theme would rank the first k ids, so they fail. ``memo``
    serves one appeal and holds its analysis under the last preprocess
    config asked for: consecutive calls for configs with equal preprocess
    configs analyse the appeal once, and a memo never holds two analyses.
    """
    if prepared is None:
        prepared = prepare_themes(catalog, config)
    memo = [] if memo is None else memo
    # compared, not hashed: equality checks the fields that replace shares
    # between configs by identity first
    if not memo or memo[0].preprocess != config.preprocess:
        memo[:] = [AppealAnalysis(appeal, config.preprocess)]
    analysis = memo[0]
    scores = _scores(appeal, analysis, config, prepared)
    if not scores.any():
        raise PipelineError("scores 0 against every theme")
    top = prepared.by_id[select_top(scores[prepared.by_id], config.k)]
    entries = tuple((prepared.index.doc_ids[i], float(scores[i])) for i in top)
    return RankedThemeList(appeal_id=appeal.id, entries=entries)


def _classify_safely(appeal, catalog, configs, prepared) -> list[tuple[str, object, float]]:
    """Every config against one appeal, sharing one memo of its analyses:
    (status, ranking or failure message, seconds) per config. A failure is
    the appeal's under that config alone; its message is the appeal id and
    the error, which does not name the appeal again."""
    memo: list = []
    outcomes = []
    for config, themes in zip(configs, prepared):
        start = time.perf_counter()
        try:
            status, payload = "ok", classify_appeal(appeal, catalog, config, themes, memo)
        except (PipelineError, ValueError, RuntimeError, MemoryError) as exc:
            status, payload = "err", f"{appeal.id}: {exc}"
        outcomes.append((status, payload, time.perf_counter() - start))
    return outcomes


_WORKER_STATE: dict = {}


def _init_worker(catalog, configs, prepared):
    _WORKER_STATE["args"] = (catalog, configs, prepared)


def _run_worker(appeal):
    return _classify_safely(appeal, *_WORKER_STATE["args"])


@dataclass(frozen=True)
class CorpusOutcome:
    """One config over a batch: rankings in input order, per-appeal failure
    messages, and the summed seconds of its ``classify_appeal`` calls (an
    analysis shared by several configs counts for the first one)."""

    results: list[RankedThemeList]
    failures: list[str]
    seconds: float


def _prepare_each(catalog: ThemeCatalog, configs: Sequence[PipelineConfig]) -> list[PreparedThemes]:
    """prepare_themes per config; configs with the same theme side share one
    PreparedThemes, so their guided summaries share guidance σ."""
    shared: dict = {}
    prepared = []
    for config in configs:
        key = (config.bm25, _embedding_file(config))
        if key not in shared:
            shared[key] = prepare_themes(catalog, config)
        prepared.append(shared[key])
    return prepared


def classify_grid(
    appeals: Sequence[AppealRecord],
    catalog: ThemeCatalog,
    configs: Sequence[PipelineConfig],
    parallel: int = 1,
) -> list[CorpusOutcome]:
    """Classify a batch of appeals under every config, one outcome per config.

    One task per appeal runs every config, in the given order, against that
    appeal's memo: an appeal is analysed once per run of consecutive configs
    that share a preprocess config (once per preprocess option in grid
    order), and a worker holds one analysis at a time. All configs share one
    process pool. Results keep input order; per-appeal failures are
    collected instead of aborting the batch.
    """
    prepared = _prepare_each(catalog, configs)
    # the pool starts all max_workers processes at its first task; none idle
    workers = min(parallel, len(appeals))
    if workers <= 1:
        per_appeal = [_classify_safely(a, catalog, configs, prepared) for a in appeals]
    else:
        chunksize = max(1, len(appeals) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(catalog, configs, prepared),
        ) as pool:
            per_appeal = list(pool.map(_run_worker, appeals, chunksize=chunksize))

    outcomes = []
    for column in range(len(configs)):
        results, failures, seconds = [], [], 0.0
        for row in per_appeal:
            status, payload, elapsed = row[column]
            (results if status == "ok" else failures).append(payload)
            seconds += elapsed
        outcomes.append(CorpusOutcome(results, failures, seconds))
    return outcomes


def classify_corpus(
    appeals: Sequence[AppealRecord],
    catalog: ThemeCatalog,
    config: PipelineConfig,
    parallel: int = 1,
) -> tuple[list[RankedThemeList], list[str]]:
    """Classify a batch of appeals, preserving input order.

    Per-appeal failures are collected as messages instead of aborting the
    batch. Returns (results, failures).
    """
    outcome = classify_grid(appeals, catalog, [config], parallel)[0]
    return outcome.results, outcome.failures


RANKINGS_HEADER = ("appeal_id", "rank", "theme_id", "score", "gold_theme_id", "hit_flag")


def write_rankings(
    path: str | Path,
    rankings: Iterable[RankedThemeList],
    gold: Mapping[str, str] | None = None,
) -> None:
    """Write one delimited row per suggestion: rank, score, gold id, hit flag."""
    gold = gold or {}

    def rows():
        yield list(RANKINGS_HEADER)
        for ranking in rankings:
            label = gold.get(ranking.appeal_id, "")
            for position, (theme_id, score) in enumerate(ranking.entries, start=1):
                hit = "1" if label and theme_id == label else "0"
                yield [ranking.appeal_id, str(position), theme_id, repr(score), label, hit]

    write_records(path, ",", rows())
