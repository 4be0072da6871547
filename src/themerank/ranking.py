"""End-to-end pipeline: preprocess an appeal, build its representation,
score it against the theme catalog and emit the ordered top-k suggestions.

Classification of a single appeal is a pure function of (appeal, catalog,
config), so corpus runs are byte-identical at any degree of parallelism.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .bm25 import Bm25Index, Bm25Params, build_index
from .corpus import AppealRecord, ThemeCatalog
from .lexrank import SummaryConfig, summarize
from .similarity import EmbeddingTable, cosine, load_embeddings, score_by_bm25, tfidf_vectors
from .textproc import PreprocessConfig, extract_core, remove_noise, segment_sentences, tokenize

REPRESENTATIONS = ("fulltext", "lexrank", "guided_lexrank")
SIMILARITY_METHODS = ("bm25", "cosine")
TFIDF_FALLBACK = "tfidf"

_QUERY_KEY = "\x00query"


class PipelineError(ValueError):
    """Raised when one appeal cannot be classified under the given config."""


def summary_mode(representation: str) -> str:
    """The summarizer mode a representation runs: only guided_lexrank uses theme guidance."""
    return "guided" if representation == "guided_lexrank" else "plain"


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
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.similarity_method == "cosine" and self.embedding_source is None:
            raise ValueError(
                "cosine similarity requires an embedding_source "
                f"(a file path or {TFIDF_FALLBACK!r})"
            )
        mode = summary_mode(self.representation)
        if self.summary.mode != mode:
            # the representation decides the mode; a summary config written
            # for another representation is rebased onto it here
            object.__setattr__(self, "summary", replace(self.summary, mode=mode))


@dataclass(frozen=True)
class RankedThemeList:
    """Ordered top-k theme suggestions for one appeal."""

    appeal_id: str
    entries: tuple[tuple[str, float], ...]

    def theme_ids(self) -> tuple[str, ...]:
        return tuple(theme_id for theme_id, _ in self.entries)


@dataclass(frozen=True)
class PreparedThemes:
    """Per-run shared state: tokenized themes, their BM25 index, embeddings."""

    catalog: ThemeCatalog
    tokens: dict[str, list[str]]
    index: Bm25Index
    embeddings: EmbeddingTable | None


def prepare_themes(catalog: ThemeCatalog, config: PipelineConfig) -> PreparedThemes:
    """Build the read-only theme-side state shared by every appeal."""
    if len(catalog) == 0:
        raise PipelineError("theme catalog is empty")
    tokens = {theme.id: tokenize(theme.text) for theme in catalog}
    index = build_index([(theme.id, tokens[theme.id]) for theme in catalog], config.bm25)
    embeddings = None
    if config.similarity_method == "cosine" and config.embedding_source != TFIDF_FALLBACK:
        embeddings = load_embeddings(config.embedding_source)
    return PreparedThemes(catalog=catalog, tokens=tokens, index=index, embeddings=embeddings)


def _representation_tokens(
    appeal: AppealRecord, config: PipelineConfig, prepared: PreparedThemes
) -> list[str]:
    core = extract_core(appeal.raw_text, config.preprocess)
    cleaned = remove_noise(core, config.preprocess)
    if not cleaned.strip():
        raise PipelineError(f"appeal {appeal.id!r}: text empty after preprocessing")
    if config.representation == "fulltext":
        return tokenize(cleaned)

    sentences = segment_sentences(cleaned, config.preprocess.abbreviations)
    summary = summarize(
        sentences,
        config.summary,
        theme_index=prepared.index if config.summary.mode == "guided" else None,
    )
    return tokenize(summary.text)


def _cosine_scores(
    appeal: AppealRecord,
    rep_tokens: list[str],
    config: PipelineConfig,
    prepared: PreparedThemes,
) -> dict[str, float]:
    if config.embedding_source == TFIDF_FALLBACK:
        if not rep_tokens:
            raise PipelineError(f"appeal {appeal.id!r}: no tokens left for vectorization")
        table = tfidf_vectors(
            [(_QUERY_KEY, rep_tokens)]
            + [(theme.id, prepared.tokens[theme.id]) for theme in prepared.catalog]
        )
        query_vector = table.vectors[_QUERY_KEY]
    else:
        table = prepared.embeddings
        query_vector = table.vectors.get(appeal.id)
        if query_vector is None:
            raise PipelineError(f"appeal {appeal.id!r}: no embedding in {config.embedding_source}")

    scores = {}
    for theme in prepared.catalog:
        theme_vector = table.vectors.get(theme.id)
        if theme_vector is None:
            raise PipelineError(f"theme {theme.id!r}: no embedding in {config.embedding_source}")
        try:
            scores[theme.id] = cosine(query_vector, theme_vector)
        except ValueError as exc:
            raise PipelineError(f"appeal {appeal.id!r} vs theme {theme.id!r}: {exc}") from exc
    return scores


def classify_appeal(
    appeal: AppealRecord,
    catalog: ThemeCatalog,
    config: PipelineConfig,
    prepared: PreparedThemes | None = None,
) -> RankedThemeList:
    """Rank every theme for one appeal and truncate to the top k.

    Scores sort descending with ties broken by ascending theme id.
    """
    if prepared is None:
        prepared = prepare_themes(catalog, config)
    rep_tokens = _representation_tokens(appeal, config, prepared)
    if config.similarity_method == "bm25":
        scores = score_by_bm25(rep_tokens, prepared.index).scores
    else:
        scores = _cosine_scores(appeal, rep_tokens, config, prepared)
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return RankedThemeList(appeal_id=appeal.id, entries=tuple(ordered[: config.k]))


def _classify_safely(
    appeal: AppealRecord,
    catalog: ThemeCatalog,
    config: PipelineConfig,
    prepared: PreparedThemes,
):
    try:
        return ("ok", classify_appeal(appeal, catalog, config, prepared))
    except (PipelineError, ValueError, RuntimeError) as exc:
        return ("err", f"{appeal.id}: {exc}")


_WORKER_STATE: dict = {}


def _init_worker(catalog, config, prepared):
    _WORKER_STATE["args"] = (catalog, config, prepared)


def _run_worker(appeal):
    catalog, config, prepared = _WORKER_STATE["args"]
    return _classify_safely(appeal, catalog, config, prepared)


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
    prepared = prepare_themes(catalog, config)
    if parallel <= 1 or len(appeals) <= 1:
        outcomes = [_classify_safely(a, catalog, config, prepared) for a in appeals]
    else:
        chunksize = max(1, len(appeals) // (parallel * 4))
        with ProcessPoolExecutor(
            max_workers=parallel,
            initializer=_init_worker,
            initargs=(catalog, config, prepared),
        ) as pool:
            outcomes = list(pool.map(_run_worker, appeals, chunksize=chunksize))

    results = []
    failures = []
    for status, payload in outcomes:
        if status == "ok":
            results.append(payload)
        else:
            failures.append(payload)
    return results, failures


RANKINGS_HEADER = ("appeal_id", "rank", "theme_id", "score", "gold_theme_id", "hit_flag")


def write_rankings(
    path: str | Path,
    rankings: Iterable[RankedThemeList],
    gold: Mapping[str, str] | None = None,
) -> None:
    """Write one delimited row per suggestion: rank, score, gold id, hit flag."""
    gold = gold or {}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RANKINGS_HEADER)
        for ranking in rankings:
            label = gold.get(ranking.appeal_id, "")
            for position, (theme_id, score) in enumerate(ranking.entries, start=1):
                hit = 1 if label and theme_id == label else 0
                writer.writerow(
                    [ranking.appeal_id, position, theme_id, repr(score), label, hit]
                )


def read_rankings(path: str | Path) -> list[RankedThemeList]:
    """Parse a rankings file back into RankedThemeList values (gold ignored)."""
    grouped: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != RANKINGS_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            appeal_id, _, theme_id, score = row[0], row[1], row[2], float(row[3])
            grouped.setdefault(appeal_id, []).append((theme_id, score))
    return [RankedThemeList(appeal_id, tuple(entries)) for appeal_id, entries in grouped.items()]
