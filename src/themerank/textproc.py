"""Sentence segmentation, tokenization and noise removal for long legal documents.

Noise removal targets the artifacts that pollute Brazilian appeal texts:
docket-style process numbers, registry numbers that identify people or
companies, monetary amounts, long digit runs and street addresses, followed
by whole-word stopword removal.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

TokenSequence = list[str]

# sentence-final punctuation; abbreviations are stored without it
TERMINALS = ".!?…"
# a candidate boundary: a maximal run of terminals, then the whole whitespace
# run after it (group 1) and a character that is not whitespace; re's \s is
# exactly str.isspace. Every later character of a run shares its suffix, so a
# match never starts inside a run. Led by a bare class, not a repeat, so re
# jumps from one terminal to the next
_TERMINAL_RUN_RE = re.compile(r"[.!?…][.!?…]*(\s+)(?=\S)")

# Sentence-final abbreviations that must not end a sentence, stored without
# their trailing period.
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "art",
        "arts",
        "av",
        "fl",
        "fls",
        "nº",
        "n°",
        "inc",
        "incs",
        "§",
        "§§",
        "dr",
        "dra",
        "min",
        "rel",
        "proc",
    }
)


@dataclass(frozen=True)
class RemovalRule:
    """A named regular-expression rule applied during noise removal."""

    name: str
    pattern: re.Pattern

    @classmethod
    def compile(cls, name: str, pattern: str) -> "RemovalRule":
        try:
            return cls(name, re.compile(pattern))
        except re.error as exc:
            raise ValueError(f"removal pattern {name!r} is not a valid regex: {exc}") from exc


def default_removal_rules() -> tuple[RemovalRule, ...]:
    """Ordered default removal rules; each may be overridden in the run config.

    Each pattern begins with a character class or literal, so ``re`` jumps
    from one candidate first character to the next instead of trying a match
    at every position; the word boundary before that character is checked
    after it, by a lookbehind over it and the one before. Their readable
    forms, with a leading ``\\b``, are the oracles in ``tests/oracles.py``.
    """
    return (
        # CNJ-style docket mask NNNNNNN-NN.NNNN.N.NN.NNNN
        RemovalRule.compile(
            "process_number", r"\d(?<!\w\d)\d{6}-\d{2}\.\d{4}\.\d\.\d{2}\.\d{4}\b"
        ),
        # CPF (NNN.NNN.NNN-NN) and CNPJ (NN.NNN.NNN/NNNN-NN) masks, the
        # registry numbers naming people and companies
        RemovalRule.compile(
            "registry_number",
            r"\d(?<!\w\d)(?:\d{2}\.\d{3}\.\d{3}-\d{2}|\d\.\d{3}\.\d{3}/\d{4}-\d{2})\b",
        ),
        RemovalRule.compile("monetary_value", r"R\$\s*\d[\d.,]*"),
        # standalone digit runs of length >= 4 (years, docket fragments, zip codes)
        RemovalRule.compile("digit_run", r"\d(?<!\w\d)\d{3,}\b"),
        # a street word (Rua, Avenida, Av., Travessa, Alameda, Praça, Rodovia)
        # starting a word, consumed to end of line or sentence; CSV-loaded
        # documents are often one physical line, so stopping only at newlines
        # would swallow everything after the first street name
        RemovalRule.compile(
            "address",
            r"(?:R(?<!\wR)(?:ua|odovia)\b|A(?<!\wA)(?:venida\b|v\.|lameda\b)"
            r"|T(?<!\wT)ravessa\b|P(?<!\wP)raça\b)[^\n.!?…]*",
        ),
    )


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one word per line, # starts a comment. Entries
    keep their case; the config normalises them and matching folds case."""
    with open(path, encoding="utf-8") as handle:
        words = (line.split("#", 1)[0].strip() for line in handle)
        return frozenset(filter(None, words))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    ref = resources.files("themerank").joinpath("data/stopwords_pt.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


def abbreviation_key(entry: str) -> str:
    """The form an abbreviation is guarded in and a token is looked up by:
    NFC, lowercase, without trailing terminals."""
    return unicodedata.normalize("NFC", entry).lower().rstrip(TERMINALS)


@dataclass(frozen=True)
class PreprocessConfig:
    """Noise-removal settings shared by the whole pipeline.

    ``remove_terms`` is the with/without-removal experiment axis; when false
    :func:`remove_noise` is the identity. Patterns run in declared order,
    stopword matching is case-insensitive and whole-word.

    Each collection field takes any iterable and is stored frozen, stopwords
    NFC-normalised and abbreviations keyed; a bad entry fails construction.
    """

    remove_terms: bool = True
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    removal_patterns: tuple[RemovalRule, ...] = field(default_factory=default_removal_rules)
    core_start_markers: tuple[str, ...] = ()
    core_end_markers: tuple[str, ...] = ()
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
    folded_stopwords: frozenset[str] = field(init=False, compare=False, repr=False)
    _SET_KEYS = {"stopwords": partial(unicodedata.normalize, "NFC"), "abbreviations": abbreviation_key}

    def __post_init__(self):
        names = ("stopwords", "removal_patterns", "core_start_markers", "core_end_markers", "abbreviations")
        for name in names:
            value, kind = getattr(self, name), RemovalRule if name == "removal_patterns" else str
            if isinstance(value, str):  # iterated, it would be one-character entries
                raise ValueError(f"{name} must be a collection, got the string {value!r}")
            entries = tuple(value)
            if wrong := [entry for entry in entries if not isinstance(entry, kind)]:
                raise ValueError(f"{name} entries must be {kind.__name__}, got {wrong[0]!r}")
            if name in self._SET_KEYS:
                entries = frozenset(map(self._SET_KEYS[name], entries))
            # a field given in normal form keeps its object: configs made by
            # replace share it, and the per-appeal memo compares by identity
            if type(value) is not type(entries) or value != entries:
                object.__setattr__(self, name, entries)
        if wrong := sorted(word for word in self.stopwords if not word.isalnum()):
            raise ValueError(f"stopword {wrong[0]!r} is not one word (a run of letters and digits)")
        object.__setattr__(self, "folded_stopwords", frozenset(map(fold, self.stopwords)))


def extract_core(raw_text: str, config: PreprocessConfig | None = None) -> str:
    """Cut the document down to the span between its core section markers.

    The span runs from the end of the first start marker to the beginning of
    the last end marker found after it. When no marker pair is present the
    text is returned unchanged.
    """
    if not raw_text:
        raise ValueError("extract_core requires non-empty input")
    config = config or PreprocessConfig()
    if not config.core_start_markers or not config.core_end_markers:
        return raw_text

    start_at = None
    for marker in config.core_start_markers:
        pos = raw_text.find(marker)
        if pos >= 0 and (start_at is None or pos < start_at[0]):
            start_at = (pos, pos + len(marker))
    if start_at is None:
        return raw_text

    end_at = None
    for marker in config.core_end_markers:
        pos = raw_text.rfind(marker)
        if pos >= start_at[1] and (end_at is None or pos > end_at):
            end_at = pos
    if end_at is None:
        return raw_text

    core = raw_text[start_at[1] : end_at]
    return core if core.strip() else raw_text


def segment_sentences(text: str, config: PreprocessConfig) -> list[str]:
    """Split text into sentences at terminal punctuation, in document order.

    A split happens after a run of ``. ! ? …`` followed by whitespace and an
    uppercase letter or digit, unless the token carrying the punctuation is
    one of the config's abbreviations. Sentences are stripped and empty
    fragments dropped.
    """
    if not text:
        raise ValueError("segment_sentences requires non-empty text")
    sentences = []
    start = 0
    for run in _TERMINAL_RUN_RE.finditer(text):
        j, k = run.span(1)
        if text[k].isupper() or text[k].isdigit():
            # the run is maximal, so the token before it ends in no terminal
            i = t = run.start()
            while t > 0 and not text[t - 1].isspace():
                t -= 1
            if abbreviation_key(text[t:i]) not in config.abbreviations:
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = k
    piece = text[start:].strip()
    if piece:
        sentences.append(piece)
    return sentences


def tokenize(text: str) -> TokenSequence:
    """NFC-normalize, lowercase and split on non-alphanumeric boundaries.

    Digits survive as tokens; pure-punctuation fragments are dropped.
    """
    # no whitespace is \w, so no token crosses a str.split() piece, and an
    # isalnum piece is one [^\W_]+ run: only the other pieces are searched
    tokens = []
    for piece in unicodedata.normalize("NFC", text).lower().split():
        if piece.isalnum():
            tokens.append(piece)
        else:
            tokens += _WORD_RUN_RE.findall(piece)
    return tokens


def term_counts(
    token_lists: Sequence[Sequence[str]],
) -> tuple[tuple[str, ...], sparse.csr_matrix]:
    """The sorted vocabulary of ``token_lists`` and their docs x terms CSR
    matrix of (float) counts.

    Columns follow the vocabulary, so each row stores its columns ascending,
    in lexicographic term order: the order BM25 adds a query's terms in,
    which sparse products over these counts keep.
    """
    flat = list(chain.from_iterable(token_lists))
    terms = tuple(sorted(set(flat)))
    column = dict(zip(terms, range(len(terms))))
    width = max(len(terms), 1)
    rows = np.repeat(
        np.arange(len(token_lists), dtype=np.int64), [len(tokens) for tokens in token_lists]
    )
    columns = np.fromiter(map(column.__getitem__, flat), np.int64, len(flat))
    # one int64 key per (row, column), ascending by row then column
    keys, counts = np.unique(rows * width + columns, return_counts=True)
    indptr = np.searchsorted(keys, np.arange(len(token_lists) + 1, dtype=np.int64) * width)
    matrix = sparse.csr_matrix(
        (counts.astype(float), keys % width, indptr), shape=(len(token_lists), len(terms))
    )
    return terms, matrix


# re.IGNORECASE matches letters that str.lower keeps apart: lowercase letters
# with one uppercase (ſ/s, ı/i, µ/μ, ς/σ, Greek symbol forms, forms NFC
# replaces), İ (two characters under str.lower) and Σ (ς at a word's end).
# Python 3.11+ also pairs Cyrillic rounded forms (U+1C80-U+1C88), 3.10 not.
_FOLD = str.maketrans("ſıİµςΣϐϵϑϰϖϱϕẛﬅ\u1fbe\u1fd3\u1fe3", "siiμσσβεθκπρφṡﬆι\u0390\u03b0")
# a string, not a character class: each character is one C substring test,
# and a text of one byte per character refuses at once all of them but µ
_FOLDABLE = "".join(map(chr, _FOLD))
_WORD_RUN_RE = re.compile(r"([^\W_]+)")


def fold(word: str) -> str:
    """The case key of a word: two words match under ``re.IGNORECASE``
    exactly when their folds are equal."""
    return word.translate(_FOLD).lower()


def remove_noise(text: str, config: PreprocessConfig) -> str:
    """Strip noise patterns and stopwords when removal is enabled.

    With ``remove_terms`` false the input is returned unchanged. Otherwise the
    removal patterns run in declared order, then each whitespace-separated
    piece is dropped when it is a stopword, or loses its stopword word runs
    when it holds punctuation; the rest is joined by single spaces.
    """
    if not config.remove_terms:
        return text
    cleaned = unicodedata.normalize("NFC", text)
    for rule in config.removal_patterns:
        cleaned = rule.pattern.sub(" ", cleaned)
    stopwords = config.folded_stopwords
    # str.split() splits at runs of str.isspace, which is re's \s
    if not stopwords:
        return " ".join(cleaned.split())
    key = fold if any(ch in cleaned for ch in _FOLDABLE) else str.lower
    kept = []
    for token in cleaned.split():
        if token.isalnum():
            if key(token) not in stopwords:
                kept.append(token)
        else:
            parts = _WORD_RUN_RE.split(token)
            parts[1::2] = [" " if key(run) in stopwords else run for run in parts[1::2]]
            kept += "".join(parts).split()
    return " ".join(kept)
