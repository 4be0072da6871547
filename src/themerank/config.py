"""Declarative run configuration: one YAML/JSON file plus flag overrides.

The file is a nested key-value document; every knob has a default, so an
empty config is valid. Command-line flags always win over file values.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterator

import yaml

from .bm25 import Bm25Params
from .lexrank import SummaryConfig
from .ranking import PipelineConfig
from .textproc import PreprocessConfig, RemovalRule, load_stopwords


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


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _rules(value: Any) -> bool:
    """A list of removal rules, each mapping string ``name`` and ``pattern``."""
    return isinstance(value, list) and all(
        isinstance(rule, dict) and _strings([rule.get("name"), rule.get("pattern")]) for rule in value
    )


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _or_null(shape: str, fits: Callable[[Any], bool]) -> tuple[str, Callable[[Any], bool]]:
    return f"{shape} or null", lambda value: value is None or fits(value)


# What a value must hold: by the type of its default, or by its key where the
# default is null or a list. A string where a list is due would be iterated
# into one-character markers or abbreviations.
_TYPE_SHAPES = {
    bool: ("true or false", lambda value: isinstance(value, bool)),
    int: ("an integer", lambda value: _number(value) and isinstance(value, int)),
    float: ("a number", _number),
    str: ("a string", lambda value: isinstance(value, str)),
}
_KEY_SHAPES = {
    "embeddings": _or_null("a file path", lambda value: isinstance(value, str)),
    "preprocess.stopwords": _or_null("a file path", lambda value: isinstance(value, str)),
    "preprocess.removal_patterns": _or_null("a list of mappings with string 'name' and 'pattern'", _rules),
    "preprocess.core_start_markers": _or_null("a list of strings", _strings),
    "preprocess.core_end_markers": _or_null("a list of strings", _strings),
    "preprocess.abbreviations": _or_null("a list of strings", _strings),
}


def _merge(defaults: dict, loaded: dict, path: str, prefix: str = "") -> dict:
    """The defaults with the file's values laid over them. Walks the file's
    keys in its order and names the first unknown key, section that is not a
    mapping, grid axis that is not a list or value of the wrong shape."""
    merged = copy.deepcopy(defaults)
    for key, value in loaded.items():
        name = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key {name!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: {name!r} must be a mapping, got {value!r}")
            value = _merge(defaults[key], value, path, f"{name}.")
        elif prefix == "grid.":
            if not isinstance(value, list):
                raise ConfigError(f"{path}: grid axis {key!r} must be a list, got {value!r}")
        else:
            shape, fits = _KEY_SHAPES.get(name) or _TYPE_SHAPES[type(defaults[key])]
            if not fits(value):
                raise ConfigError(f"{path}: {name!r} must be {shape}, got {value!r}")
        merged[key] = value
    return merged


_MERGE_TAG = "tag:yaml.org,2002:merge"


class _RunFileLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a key written twice in one mapping; a key
    that a merge (``<<``) brings in may be written out again."""

    def compose_node(self, parent, index):
        node = super().compose_node(parent, index)
        # keys are composed in file order, each with index None; a scalar key
        # is told by its resolved tag and text, exact for a run file's strings
        is_key = index is None and isinstance(parent, yaml.MappingNode)
        if is_key and isinstance(node, yaml.ScalarNode) and node.tag != _MERGE_TAG:
            if any((key.tag, key.value) == (node.tag, node.value) for key, _ in parent.value):
                mark = node.start_mark
                raise ConfigError(f"{mark.name}: key {node.value!r} written twice, again on line {mark.line + 1}")
        return node


def load_run_config(path: str | None = None) -> dict[str, Any]:
    """Read the run file (YAML, of which JSON is a subset) over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = yaml.load(handle, Loader=_RunFileLoader)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: cannot parse config: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return _merge(DEFAULT_CONFIG, loaded, path)


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
    """The preprocess section as a PreprocessConfig; a null setting, and no
    stopword file, leave the field at the dataclass default."""
    section = config["preprocess"]
    names = ("remove_terms", "core_start_markers", "core_end_markers", "abbreviations", "removal_patterns")
    settings = {name: section[name] for name in names if section[name] is not None}
    try:
        if "removal_patterns" in settings:
            rules = settings["removal_patterns"]
            settings["removal_patterns"] = [RemovalRule.compile(r["name"], r["pattern"]) for r in rules]
        preprocess = PreprocessConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = section["stopwords"]
    try:
        # the other fields passed above, so a refusal here is the file's
        return replace(preprocess, stopwords=load_stopwords(path)) if path else preprocess
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def report_fields(pipeline: PipelineConfig) -> tuple[str, str, str, str]:
    """Preprocess, representation, summary size (``na`` for fulltext) and
    similarity: the fields that name a run in its reports."""
    return (
        "remove" if pipeline.preprocess.remove_terms else "keep",
        pipeline.representation,
        "na" if pipeline.representation == "fulltext" else str(pipeline.summary.size),
        pipeline.similarity_method,
    )


def descriptor(pipeline: PipelineConfig) -> str:
    """The run's name in reports, ``preprocess=…,representation=…,size=…,similarity=…``."""
    keys = ("preprocess", "representation", "size", "similarity")
    return ",".join(f"{key}={value}" for key, value in zip(keys, report_fields(pipeline)))


def build_pipeline(config: dict[str, Any]) -> PipelineConfig:
    """Materialize a validated PipelineConfig from a config merged over DEFAULT_CONFIG."""
    try:
        return PipelineConfig(
            preprocess=build_preprocess(config),
            representation=config["representation"],
            summary=SummaryConfig(**config["summary"]),
            similarity_method=config["similarity"],
            bm25=Bm25Params(**config["bm25"]),
            k=config["k"],
            embedding_source=config["embeddings"],
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


@dataclass(frozen=True)
class ExperimentGrid:
    """The axes swept by the grid runner; fulltext ignores summary sizes."""

    preprocess_options: tuple[bool, ...]
    representations: tuple[str, ...]
    summary_sizes: tuple[int, ...]
    similarity_methods: tuple[str, ...]

    def __post_init__(self):
        for name in ("preprocess_options", "representations", "summary_sizes", "similarity_methods"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"grid axis {name!r} must be non-empty")
            # distinct axis values are exactly what makes every cell, and so
            # every output file name, unique; compared, not hashed: a value
            # that cell_config rejects may be a list or a mapping
            if any(value in values[:i] for i, value in enumerate(values)):
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
        if not isinstance(value, (str, bool)) or value not in _PREPROCESS_NAMES:
            raise ConfigError(f"grid preprocess values must be 'remove' or 'keep', got {value!r}")
        options.append(_PREPROCESS_NAMES[value])
    for size in section["summary_sizes"]:
        if not isinstance(size, int) or isinstance(size, bool):
            raise ConfigError(f"'grid.summary_sizes' must hold integers, got {size!r}")
        if size < 1:
            raise ConfigError(f"'grid.summary_sizes' must hold sizes >= 1, got {size}")
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
    )
