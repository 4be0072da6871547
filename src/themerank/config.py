"""Declarative run configuration: one YAML/JSON file plus flag overrides.

The file is a nested key-value document; every knob has a default, so an
empty config is valid. Command-line flags always win over file values.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterator

import yaml

from .bm25 import Bm25Params
from .lexrank import SummaryConfig
from .ranking import REPRESENTATIONS, SIMILARITY_METHODS, TFIDF_FALLBACK, PipelineConfig
from .textproc import (
    DEFAULT_ABBREVIATIONS,
    TERMINALS,
    PreprocessConfig,
    RemovalRule,
    default_removal_rules,
    default_stopwords,
    load_stopwords,
    stopword_regex,
)


class ConfigError(ValueError):
    """Raised for unreadable or inconsistent run configuration."""


_PREPROCESS_NAMES = {"remove": True, "keep": False, True: True, False: False}

# Scalar defaults are the dataclass defaults, so each value is written once.
DEFAULT_CONFIG: dict[str, Any] = {
    "delimiter": ",",
    "appeal_columns": {"id": "id", "text": "text", "theme": "theme"},
    "theme_columns": {"id": "id", "text": "text"},
    "preprocess": {
        "remove_terms": PreprocessConfig.remove_terms,
        "stopwords": None,
        "removal_patterns": None,
        "core_start_markers": [],
        "core_end_markers": [],
        "abbreviations": None,
    },
    "representation": PipelineConfig.representation,
    "summary": asdict(SummaryConfig()),
    "bm25": asdict(Bm25Params()),
    "similarity": PipelineConfig.similarity_method,
    "k": PipelineConfig.k,
    "embeddings": PipelineConfig.embedding_source,
    "grid": {
        "preprocess": [PreprocessConfig.remove_terms],
        "representations": [PipelineConfig.representation],
        "summary_sizes": [SummaryConfig.size],
        "similarity_methods": [PipelineConfig.similarity_method],
    },
}

# Flag name -> key path in the run config; the flags apply_overrides accepts.
OVERRIDE_PATHS: dict[str, tuple[str, ...]] = {
    "k": ("k",),
    "representation": ("representation",),
    "summary_size": ("summary", "size"),
    "alpha": ("summary", "alpha"),
    "beta": ("summary", "beta"),
    "similarity": ("similarity",),
    "remove_terms": ("preprocess", "remove_terms"),
    "embeddings": ("embeddings",),
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_run_config(path: str | None = None) -> dict[str, Any]:
    """Read the run file (YAML, of which JSON is a subset) over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: cannot parse config: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    merged = _deep_merge(DEFAULT_CONFIG, loaded)
    _check_shapes(merged, path)
    return merged


def _scalar_shape(default: Any) -> tuple[str, Any] | None:
    """What a scalar key must hold, by the type of its default; None for
    lists and null defaults, which have shapes of their own."""
    if isinstance(default, bool):
        return "true or false", lambda value: isinstance(value, bool)
    if isinstance(default, int):
        return "an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return "a number", lambda value: (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    if isinstance(default, str):
        return "a string", lambda value: isinstance(value, str)
    return None


def _check_keys(config: dict, defaults: dict, path: str, prefix: str = "") -> None:
    """Every key is one the defaults hold, every section the defaults hold
    as a mapping is a mapping, and every scalar is of its default's type."""
    for key, value in config.items():
        name = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key {name!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: {name!r} must be a mapping, got {value!r}")
            _check_keys(value, defaults[key], path, f"{name}.")
            continue
        shape = _scalar_shape(defaults[key])
        if shape is not None and not shape[1](value):
            raise ConfigError(f"{path}: {name!r} must be {shape[0]}, got {value!r}")


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# The shape of each value with a null default besides null: a string where a
# list is due would be iterated into one-character markers or abbreviations.
_NULLABLE_SHAPES = {
    ("embeddings",): ("a file path", lambda value: isinstance(value, str)),
    ("preprocess", "stopwords"): ("a file path", lambda value: isinstance(value, str)),
    ("preprocess", "removal_patterns"): ("a list", lambda value: isinstance(value, list)),
    ("preprocess", "core_start_markers"): ("a list of strings", _strings),
    ("preprocess", "core_end_markers"): ("a list of strings", _strings),
    ("preprocess", "abbreviations"): ("a list of strings", _strings),
}


def _check_shapes(config: dict[str, Any], path: str) -> None:
    """Keys, sections and scalars as the defaults hold them, every grid axis
    a list and every nullable value of its shape, so that a misshapen value
    is named, not iterated or converted."""
    _check_keys(config, DEFAULT_CONFIG, path)
    for axis, value in config["grid"].items():
        if not isinstance(value, list):
            raise ConfigError(f"{path}: grid axis {axis!r} must be a list, got {value!r}")
    for keys, (shape, fits) in _NULLABLE_SHAPES.items():
        value = config
        for key in keys:
            value = value[key]
        if value is not None and not fits(value):
            name = ".".join(keys)
            raise ConfigError(f"{path}: {name!r} must be {shape} or null, got {value!r}")


def apply_overrides(config: dict[str, Any], overrides: dict[str, Any]) -> dict[str, Any]:
    """Overlay non-None flag values onto a loaded config; flags win."""
    config = copy.deepcopy(config)
    for name, value in overrides.items():
        if value is None:
            continue
        node = config
        *parents, leaf = OVERRIDE_PATHS[name]
        for parent in parents:
            node = node.setdefault(parent, {})
        node[leaf] = value
    return config


def build_preprocess(config: dict[str, Any]) -> PreprocessConfig:
    section = config["preprocess"]
    stopword_path = section["stopwords"]
    stopwords = load_stopwords(stopword_path) if stopword_path else default_stopwords()
    try:
        stopword_regex(stopwords)  # once here, not once per appeal
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    raw_patterns = section["removal_patterns"]
    if raw_patterns is None:
        patterns = default_removal_rules()
    else:
        patterns = []
        for entry in raw_patterns:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("pattern"), str)
            ):
                raise ConfigError(
                    "each 'preprocess.removal_patterns' entry needs string 'name' and "
                    f"'pattern' values, got {entry!r}"
                )
            try:
                patterns.append(RemovalRule.compile(entry["name"], entry["pattern"]))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        patterns = tuple(patterns)

    abbreviations = section["abbreviations"]
    if abbreviations is not None:
        # segmentation compares each token lowercased, without its terminals
        abbreviations = frozenset(entry.lower().rstrip(TERMINALS) for entry in abbreviations)
    return PreprocessConfig(
        remove_terms=bool(section["remove_terms"]),
        stopwords=stopwords,
        removal_patterns=patterns,
        core_start_markers=tuple(section["core_start_markers"] or ()),
        core_end_markers=tuple(section["core_end_markers"] or ()),
        abbreviations=DEFAULT_ABBREVIATIONS if abbreviations is None else abbreviations,
    )


def _embedding_source(similarity: str, embeddings: str | None) -> str | None:
    """Cosine scoring without an embedding file uses the built-in tf-idf vectors."""
    return TFIDF_FALLBACK if similarity == "cosine" and embeddings is None else embeddings


def build_pipeline(config: dict[str, Any]) -> PipelineConfig:
    """Materialize a validated PipelineConfig from a config merged over DEFAULT_CONFIG."""
    try:
        return PipelineConfig(
            preprocess=build_preprocess(config),
            representation=config["representation"],
            summary=SummaryConfig(**config["summary"]),
            similarity_method=config["similarity"],
            bm25=Bm25Params(**config["bm25"]),
            k=int(config["k"]),
            embedding_source=_embedding_source(config["similarity"], config["embeddings"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class GridCell:
    """One grid point; ``summary_size`` is None for fulltext cells."""

    remove_terms: bool
    representation: str
    summary_size: int | None
    similarity_method: str

    @classmethod
    def of(cls, pipeline: PipelineConfig) -> "GridCell":
        """The cell a standalone pipeline config occupies."""
        size = None if pipeline.representation == "fulltext" else pipeline.summary.size
        return cls(
            pipeline.preprocess.remove_terms,
            pipeline.representation,
            size,
            pipeline.similarity_method,
        )

    def fields(self) -> tuple[str, str, str, str]:
        """Preprocess, representation, size and similarity as report fields."""
        return (
            "remove" if self.remove_terms else "keep",
            self.representation,
            "na" if self.summary_size is None else str(self.summary_size),
            self.similarity_method,
        )

    @property
    def descriptor(self) -> str:
        preprocess, representation, size, similarity = self.fields()
        return (
            f"preprocess={preprocess},representation={representation},"
            f"size={size},similarity={similarity}"
        )


@dataclass(frozen=True)
class ExperimentGrid:
    """The axes swept by the grid runner; fulltext ignores summary sizes."""

    preprocess_options: tuple[bool, ...]
    representations: tuple[str, ...]
    summary_sizes: tuple[int, ...]
    similarity_methods: tuple[str, ...]

    def __post_init__(self):
        axes = ("preprocess_options", "representations", "summary_sizes", "similarity_methods")
        for name in axes:
            if not getattr(self, name):
                raise ConfigError(f"grid axis {name!r} must be non-empty")
        for rep in self.representations:
            if rep not in REPRESENTATIONS:
                raise ConfigError(f"unknown representation {rep!r} in grid")
        for method in self.similarity_methods:
            if method not in SIMILARITY_METHODS:
                raise ConfigError(f"unknown similarity method {method!r} in grid")
        for size in self.summary_sizes:
            if size < 1:
                raise ConfigError(f"summary sizes must be positive, got {size}")
        # distinct axis values are exactly what makes every cell, and so every
        # output file name, unique; checked before any cell runs
        for name in axes:
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"grid axis {name!r} repeats a value: {list(values)}")

    def cells(self) -> Iterator[GridCell]:
        """Cells in declared order; fulltext yields once per (preprocess, method)."""
        for remove_terms in self.preprocess_options:
            for representation in self.representations:
                sizes = (None,) if representation == "fulltext" else self.summary_sizes
                for size in sizes:
                    for method in self.similarity_methods:
                        yield GridCell(remove_terms, representation, size, method)


def build_grid(config: dict[str, Any]) -> ExperimentGrid:
    section = config["grid"]
    options = []
    for value in section["preprocess"]:
        if value not in _PREPROCESS_NAMES:
            raise ConfigError(f"grid preprocess values must be 'remove' or 'keep', got {value!r}")
        options.append(_PREPROCESS_NAMES[value])
    for size in section["summary_sizes"]:
        if not isinstance(size, int) or isinstance(size, bool):
            raise ConfigError(f"'grid.summary_sizes' must hold integers, got {size!r}")
    return ExperimentGrid(
        preprocess_options=tuple(options),
        representations=tuple(section["representations"]),
        summary_sizes=tuple(section["summary_sizes"]),
        similarity_methods=tuple(section["similarity_methods"]),
    )


def cell_config(base: PipelineConfig, cell: GridCell) -> PipelineConfig:
    """Specialize a base pipeline config to one grid cell."""
    summary = base.summary
    if cell.summary_size is not None:
        summary = replace(summary, size=cell.summary_size)
    return replace(
        base,
        preprocess=replace(base.preprocess, remove_terms=cell.remove_terms),
        representation=cell.representation,
        summary=summary,
        similarity_method=cell.similarity_method,
        embedding_source=_embedding_source(cell.similarity_method, base.embedding_source),
    )
