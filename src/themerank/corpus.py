"""Loading, validation and description of the appeal and theme corpora.

Both corpora live in delimited UTF-8 text files with a header row, with or
without a byte-order mark; the column mapping and delimiter are
configurable. Loaded corpora are immutable and safe to share across workers.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator


class CorpusError(ValueError):
    """Raised for malformed corpus files: schema, duplicate ids, empty text."""


@dataclass(frozen=True)
class AppealRecord:
    """A long source document, optionally labeled with an expert theme id."""

    id: str
    raw_text: str
    label_theme_id: str | None = None


@dataclass(frozen=True)
class ThemeRecord:
    """A short catalog entry describing one recurring controversy."""

    id: str
    text: str


class ThemeCatalog:
    """Ordered, id-unique collection of themes."""

    def __init__(self, themes: Iterable[ThemeRecord]):
        self.themes: tuple[ThemeRecord, ...] = tuple(themes)
        self._ids: set[str] = set()
        for theme in self.themes:
            if theme.id in self._ids:
                raise CorpusError(f"duplicate theme id {theme.id!r}")
            self._ids.add(theme.id)

    def __len__(self) -> int:
        return len(self.themes)

    def __iter__(self) -> Iterator[ThemeRecord]:
        return iter(self.themes)

    def __contains__(self, theme_id: str) -> bool:
        return theme_id in self._ids


@dataclass(frozen=True)
class StatsReport:
    """Whitespace-split word-count summary of a document collection."""

    doc_count: int
    mean_words: float
    median_words: float
    min_words: int
    max_words: int


# csv's default field limit (131,072 chars) is below the longest published
# appeals. The limit is process-global; 2**31 - 1 fits a 32-bit C long.
_FIELD_SIZE_LIMIT = 2**31 - 1


def _column_index(header: list[str], name: str, path: str | Path) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise CorpusError(f"{path}: missing column {name!r} in header {header}") from None


def _read_records(
    path: str | Path, delimiter: str, id_col: str, text_col: str, label_col: str | None = None
) -> list[tuple[str, str, str | None]]:
    """(id, text, label) per non-blank data row of a delimited file with a header.

    A UTF-8 byte-order mark is skipped. Rows with too few fields, empty ids,
    duplicate ids or blank text are errors reported with their row number.
    The label column is optional: absent from the header, every label is None.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise CorpusError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {path}")
    csv.field_size_limit(_FIELD_SIZE_LIMIT)
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise CorpusError(f"{path}: empty file, expected a header row")
        id_idx = _column_index(header, id_col, path)
        text_idx = _column_index(header, text_col, path)
        label_idx = header.index(label_col) if label_col and label_col in header else None

        records: list[tuple[str, str, str | None]] = []
        seen: set[str] = set()
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            try:
                doc_id = row[id_idx].strip()
                text = row[text_idx]
            except IndexError:
                raise CorpusError(f"{path}: row {line}: too few fields") from None
            if not doc_id:
                raise CorpusError(f"{path}: row {line}: empty id")
            if doc_id in seen:
                raise CorpusError(f"{path}: row {line}: duplicate id {doc_id!r}")
            if not text.strip():
                raise CorpusError(f"{path}: row {line}: empty text for id {doc_id!r}")
            seen.add(doc_id)
            label = None
            if label_idx is not None and label_idx < len(row):
                label = row[label_idx].strip() or None
            records.append((doc_id, text, label))
    return records


def load_appeals(
    path: str | Path,
    *,
    delimiter: str = ",",
    id_col: str = "id",
    text_col: str = "text",
    theme_col: str | None = "theme",
) -> list[AppealRecord]:
    """Load appeal records from a delimited file with a header row.

    The theme column is optional: when it is absent from the header all
    records load unlabeled. Duplicate ids and empty text fields are errors
    reported with their row number.
    """
    rows = _read_records(path, delimiter, id_col, text_col, theme_col)
    return [AppealRecord(doc_id, text, label) for doc_id, text, label in rows]


def load_themes(
    path: str | Path,
    *,
    delimiter: str = ",",
    id_col: str = "id",
    text_col: str = "text",
) -> ThemeCatalog:
    """Load the theme catalog, preserving file order and enforcing unique ids."""
    rows = _read_records(path, delimiter, id_col, text_col)
    return ThemeCatalog(ThemeRecord(theme_id, text) for theme_id, text, _ in rows)


def write_records(path: str | Path, delimiter: str, rows: Iterable[list[str]]) -> None:
    """Write the header and data rows in the format _read_records accepts."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        minimal = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        # csv quotes a field only for the characters of its line terminator,
        # so a lone "\r" would end the row on reading; quote such rows whole
        quoted = csv.writer(handle, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if any("\r" in field for field in row) else minimal).writerow(row)


def write_appeals(path: str | Path, appeals: Iterable[AppealRecord], *, delimiter: str = ",") -> None:
    """Write appeals back to the delimited format load_appeals reads by
    default: columns id, text and theme."""
    rows = ([a.id, a.raw_text, a.label_theme_id or ""] for a in appeals)
    write_records(path, delimiter, [["id", "text", "theme"], *rows])


def write_themes(path: str | Path, themes: Iterable[ThemeRecord], *, delimiter: str = ",") -> None:
    """Write a theme catalog back to the delimited format load_themes reads
    by default: columns id and text."""
    rows = ([t.id, t.text] for t in themes)
    write_records(path, delimiter, [["id", "text"], *rows])


def gold_labels(appeals: Iterable[AppealRecord], catalog: ThemeCatalog) -> dict[str, str]:
    """Mapping appeal id -> gold theme id, restricted to resolvable labels.

    An appeal whose label is not in the catalog stays in the corpus;
    evaluation skips it and reports the skip count.
    """
    return {
        a.id: a.label_theme_id
        for a in appeals
        if a.label_theme_id is not None and a.label_theme_id in catalog
    }


def corpus_stats(docs: Iterable[AppealRecord]) -> StatsReport:
    """Word-count statistics over the raw text of a non-empty document collection.

    Counting splits on Unicode whitespace with no punctuation stripping; the
    median is the middle element, or the mean of the two middle elements for
    even counts.
    """
    counts = [len(d.raw_text.split()) for d in docs]
    if not counts:
        raise CorpusError("corpus_stats requires at least one document")
    return StatsReport(
        doc_count=len(counts),
        mean_words=statistics.fmean(counts),
        median_words=float(statistics.median(counts)),
        min_words=min(counts),
        max_words=max(counts),
    )
