"""Synthetic appeal/theme corpus builder for fixtures and acceptance runs.

Construction: every theme is a bag of unique marker tokens. An appeal embeds
its gold theme's wording as a cluster of repeated sentence fragments, quotes
a handful of strictly longer distractor themes verbatim once each, and pads
with filler sentences of one-off junk tokens. The gold theme is therefore
always lexically recoverable, while the distractor quotes reward focusing on
the repeated core instead of the whole text.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from themerank.ranking import RANKINGS_HEADER, RankedThemeList
from themerank.similarity import EmbeddingTable


def make_themes(n_themes: int = 60) -> list[tuple[str, str]]:
    themes = []
    for i in range(n_themes):
        length = 8 + (i % 25)
        tokens = [f"tema{i:03d}w{j:02d}" for j in range(length)]
        themes.append((f"T{i:03d}", " ".join(tokens)))
    return themes


def _sentence(tokens: list[str]) -> str:
    body = " ".join(tokens)
    return body[0].upper() + body[1:] + "."


def make_appeals(
    themes: list[tuple[str, str]],
    n_appeals: int,
    seed: int = 7,
    gold_copies: int = 4,
    max_quotes: int = 8,
    filler_sentences: int = 20,
) -> list[tuple[str, str, str]]:
    """Return (appeal_id, text, gold_theme_id) rows."""
    rng = random.Random(seed)
    lengths = {theme_id: len(text.split()) for theme_id, text in themes}
    by_id = dict(themes)

    appeals = []
    for i in range(n_appeals):
        gold_id = themes[rng.randrange(len(themes))][0]
        gold_tokens = by_id[gold_id].split()

        # three token-disjoint fragments, each repeated to form a cluster
        step = (len(gold_tokens) + 2) // 3
        fragments = [gold_tokens[p : p + step] for p in range(0, len(gold_tokens), step)]
        sentences = [_sentence(frag) for frag in fragments if frag] * gold_copies

        longer = [tid for tid in by_id if lengths[tid] > lengths[gold_id]]
        quotes = rng.sample(longer, min(max_quotes, len(longer)))
        sentences.extend(_sentence(by_id[tid].split()) for tid in quotes)

        for f in range(filler_sentences):
            junk = [f"ap{i:03d}fx{f:02d}t{j}" for j in range(6)]
            sentences.append(_sentence(junk))

        rng.shuffle(sentences)
        appeals.append((f"A{i:04d}", " ".join(sentences), gold_id))
    return appeals


def write_corpus(
    directory: Path, themes: list[tuple[str, str]], appeals: list[tuple[str, str, str]]
) -> tuple[Path, Path]:
    """Write themes.csv / appeals.csv in the default column schema."""
    themes_path = directory / "themes.csv"
    appeals_path = directory / "appeals.csv"
    with open(themes_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "text"])
        writer.writerows(themes)
    with open(appeals_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "text", "theme"])
        writer.writerows(appeals)
    return appeals_path, themes_path


def write_embeddings(path: str | Path, table: EmbeddingTable) -> None:
    """Write a table in the format accepted by load_embeddings."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"id\t{table.dimension}\n")
        for doc_id, vector in table.vectors.items():
            values = ",".join(repr(float(x)) for x in vector)
            handle.write(f"{doc_id}\t{values}\n")


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
