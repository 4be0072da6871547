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
from functools import lru_cache
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
_WORD_RE = re.compile(r"\w+")

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
    """Read a stopword file: one lowercase token per line, # starts a comment."""
    words = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.split("#", 1)[0].strip()
            if word:
                words.add(unicodedata.normalize("NFC", word.lower()))
    return frozenset(words)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    ref = resources.files("themerank").joinpath("data/stopwords_pt.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


@dataclass(frozen=True)
class PreprocessConfig:
    """Noise-removal settings shared by the whole pipeline.

    ``remove_terms`` is the with/without-removal experiment axis; when false
    :func:`remove_noise` is the identity. Patterns run in declared order,
    stopword matching is case-insensitive and whole-word.
    """

    remove_terms: bool = True
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    removal_patterns: tuple[RemovalRule, ...] = field(default_factory=default_removal_rules)
    core_start_markers: tuple[str, ...] = ()
    core_end_markers: tuple[str, ...] = ()
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS


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


def abbreviation_key(entry: str) -> str:
    """The form an abbreviation is guarded in and a token is looked up by:
    NFC, lowercase, without trailing terminals."""
    return unicodedata.normalize("NFC", entry).lower().rstrip(TERMINALS)


def segment_sentences(
    text: str, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split text into sentences at terminal punctuation, in document order.

    A split happens after a run of ``. ! ? …`` followed by whitespace and an
    uppercase letter or digit, unless the token carrying the punctuation is an
    abbreviation from the guard list. Sentences are stripped and empty
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
            if abbreviation_key(text[t:i]) not in abbreviations:
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
    if not text:
        return []
    normalized = unicodedata.normalize("NFC", text).lower()
    # for str patterns \w is [^\W_] plus "_": one C-level pass of \w+ over
    # the text with its underscores made separators
    return _WORD_RE.findall(normalized.replace("_", " "))


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


def _case_classes(chars) -> dict[str, str]:
    """Map each character to one representative of the characters that match
    the same text under ``re.IGNORECASE``: ``s``/``S``/``ſ``, ``k``/``K``
    (Kelvin sign), ``i``/``I``/``ı``/``İ``, ``σ``/``ς``, ``µ``/``μ`` and so on.

    A cased pattern character matches exactly the text characters of its
    class, the classes are disjoint, and an uncased character matches only
    itself; so one representative stands for its whole class in a pattern.
    """
    representatives: list[str] = []
    classes = {}
    for ch in sorted(chars):
        if ch.lower() == ch == ch.upper():
            classes[ch] = ch
            continue
        for rep in representatives:
            if re.fullmatch(re.escape(rep), ch, re.IGNORECASE):
                classes[ch] = rep
                break
        else:
            representatives.append(ch)
            classes[ch] = ch
    return classes


def _trie_pattern(root: dict) -> str:
    """The pattern of a trie: a run of single-child nodes as literals, then a
    group at a branch point or where a word ends (key ``""``), the group made
    optional after its children, so longer words are tried first. Written
    out depth first from an explicit stack, so nesting costs no recursion."""
    parts: list[str] = []
    stack: list[str | dict] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        while len(node) == 1 and "" not in node:
            ((ch, node),) = node.items()
            parts.append(re.escape(ch))
        keys = sorted(ch for ch in node if ch)
        if keys:
            pending: list[str | dict] = ["(?:"]
            for ch in keys:
                pending += [re.escape(ch), node[ch], "|"]
            pending[-1] = ")?" if "" in node else ")"
            stack.extend(reversed(pending))
    return "".join(parts)


@lru_cache(maxsize=16)
def stopword_regex(words: frozenset[str]) -> re.Pattern | None:
    """One regex for a stopword set, its words factored as a prefix trie.

    The trie is keyed by case class, so all the words that can match at one
    position lie on one path, and greedy depth-first matching returns the
    longest of them that passes the word-boundary guard: the same matches as
    an alternation of the words sorted longest first, without trying every
    word at every word start. Entries may span punctuation (``d'``).

    Groups nest once per branch point or word end along an entry. ``re``
    parses nested groups recursively, so only a set holding many hundreds of
    nested prefixes of one entry exceeds Python's recursion limit when the
    pattern compiles; that raises ValueError.
    """
    if not words:
        return None
    classes = _case_classes({ch for word in words for ch in word})
    root: dict = {}
    for word in words:
        node = root
        for ch in word:
            node = node.setdefault(classes[ch], {})
        node[""] = {}
    # custom word boundary: underscore counts as a separator, unlike \b
    try:
        return re.compile(rf"(?<![^\W_])(?:{_trie_pattern(root)})(?![^\W_])", re.IGNORECASE)
    except RecursionError:
        raise ValueError(
            "stopword set cannot compile: its entries nest too many prefixes of one "
            "another for Python's recursion limit"
        ) from None


def remove_noise(text: str, config: PreprocessConfig) -> str:
    """Strip noise patterns and stopwords when removal is enabled.

    With ``remove_terms`` false the input is returned unchanged. Otherwise the
    removal patterns run in declared order, stopwords are removed as whole
    words, and the result is whitespace-collapsed.
    """
    if not config.remove_terms:
        return text
    cleaned = unicodedata.normalize("NFC", text)
    for rule in config.removal_patterns:
        cleaned = rule.pattern.sub(" ", cleaned)
    stopword_re = stopword_regex(config.stopwords)
    if stopword_re is not None:
        cleaned = stopword_re.sub(" ", cleaned)
    # str.split() splits at runs of str.isspace, which is re's \s
    return " ".join(cleaned.split())
