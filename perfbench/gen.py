"""Seeded generator of paper-shaped appeal and theme corpora (stdlib + numpy).

The published corpus has 7,967 appeals with a median of 3,980 words, a mean
of 4,672 words and a longest appeal of 67,944 words, and a catalog of 190
themes of ~43 words. This module draws corpora of that shape:

* appeal lengths follow the lognormal fitted to the published median and
  mean: one appeal at the midpoint of each equal quantile stratum of the
  range a workload covers, plus one at the top of the range. Every seed
  gets the same length profile, so the work of a run does not move with
  the seed; the seed draws the words;
* every token comes from one shared Zipf vocabulary plus a Portuguese
  stopword stream, so sentences overlap the way real prose does and the
  sentence graph is dense;
* every appeal carries each noise kind the default removal rules target
  (docket, CPF/CNPJ, money, digit runs, street addresses), a header and a
  trailer around the core-section markers, and guarded abbreviations;
* every appeal has a gold theme whose key terms recur in a few sentences, so
  the label is lexically recoverable; other themes' key terms appear as
  distractors.

The program under test never imports this module: it only receives the
files the harness writes from these records.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

PUBLISHED_MEDIAN_WORDS = 3980
PUBLISHED_MEAN_WORDS = 4672
PUBLISHED_MAX_WORDS = 67944
CSV_FIELD_LIMIT = 131072  # csv's default field size limit, which load_appeals inherits
THEME_COUNT = 190
THEME_MEDIAN_WORDS = 36
THEME_MEAN_WORDS = 43

# Markers cutting the header and trailer off every appeal; the workload run
# configurations name the same strings.
CORE_START = "DAS RAZÕES RECURSAIS"
CORE_END = "DOS PEDIDOS"

VOCABULARY_SIZE = 30000
ZIPF_EXPONENT = 1.05
STOPWORD_SHARE = 0.42
THEME_STOPWORD_SHARE = 0.3
# vocabulary ranks of the words theme descriptions are written in; key
# terms come from ranks above this register
THEME_REGISTER = (20, 400)
KEY_TERMS_PER_THEME = 8
CATALOG_SEED = 2409
GOLD_EVERY = 120
GOLD_TERMS = 6

# Frequent Portuguese function words, most frequent first.
STOPWORDS = (
    "de a o que e do da em um para com não uma os no se na por mais as dos "
    "como mas ao ele das à seu sua ou quando muito nos já também só pelo pela "
    "até isso ela entre depois sem mesmo aos seus quem nas esse eles essa num "
    "nem suas meu às numa pelos elas qual nós lhe deles essas esses pelas "
    "este dele tu te vocês vos lhes meus minhas teu tua nosso nossa este esta "
    "foi ser tem há era está são sobre perante contra desde sob porque pois"
).split()

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "br", "cr", "pr", "tr", "ch", "lh", "nh", "qu")
_NUCLEI = ("a", "e", "i", "o", "u", "ã", "é", "ê", "ó", "ai", "ei", "ou", "ão")
_CODAS = ("", "", "", "s", "r", "l", "m", "ç")


def lognormal_sigma(median: float, mean: float) -> float:
    """Shape of the lognormal whose median and mean are the given values."""
    return math.sqrt(2.0 * math.log(mean / median))


APPEAL_SIGMA = lognormal_sigma(PUBLISHED_MEDIAN_WORDS, PUBLISHED_MEAN_WORDS)
THEME_SIGMA = lognormal_sigma(THEME_MEDIAN_WORDS, THEME_MEAN_WORDS)
_NORMAL = statistics.NormalDist()


def length_quantile(words: float) -> float:
    """Share of published-shape appeals with at most ``words`` words."""
    return _NORMAL.cdf(math.log(words / PUBLISHED_MEDIAN_WORDS) / APPEAL_SIGMA)


def quantile_lengths(n: int, lo_q: float, hi_q: float, median: float, sigma: float) -> list[int]:
    """``n`` lognormal lengths at the midpoints of ``n`` equal quantile strata
    of [lo_q, hi_q], so that every seed gets the same length profile."""
    return [
        int(round(median * math.exp(sigma * _NORMAL.inv_cdf(lo_q + (hi_q - lo_q) * (i + 0.5) / n))))
        for i in range(n)
    ]


@dataclass(frozen=True)
class CorpusShape:
    """Which slice of the published length distribution a corpus draws from."""

    appeals: int
    min_words: int
    max_words: int  # one appeal has exactly this length, so the largest input never depends on the seed


class _Writer:
    """Token streams over one shared vocabulary, drawn in vectorised batches."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        words: set[str] = set()
        while len(words) < VOCABULARY_SIZE:
            syllables = rng.integers(2, 5)
            word = "".join(
                _ONSETS[rng.integers(len(_ONSETS))] + _NUCLEI[rng.integers(len(_NUCLEI))] + _CODAS[rng.integers(len(_CODAS))]
                for _ in range(syllables)
            )
            words.add(word)
        self.vocab = np.array(sorted(words), dtype=object)
        rng.shuffle(self.vocab)
        weights = 1.0 / np.arange(1, VOCABULARY_SIZE + 1) ** ZIPF_EXPONENT
        self.vocab_cdf = np.cumsum(weights / weights.sum())
        stop_weights = 1.0 / np.arange(1, len(STOPWORDS) + 1)
        self.stop_cdf = np.cumsum(stop_weights / stop_weights.sum())
        self.stops = np.array(STOPWORDS, dtype=object)

    def tokens(self, n: int) -> list[str]:
        is_stop = self.rng.random(n) < STOPWORD_SHARE
        content = self.vocab[np.searchsorted(self.vocab_cdf, self.rng.random(n))]
        stops = self.stops[np.searchsorted(self.stop_cdf, self.rng.random(n))]
        return list(np.where(is_stop, stops, content))

    def theme_tokens(self, n: int) -> list[str]:
        """Catalog prose: fewer function words, content from the common legal register."""
        is_stop = self.rng.random(n) < THEME_STOPWORD_SHARE
        content = self.vocab[self.rng.integers(THEME_REGISTER[0], THEME_REGISTER[1], n)]
        stops = self.stops[np.searchsorted(self.stop_cdf, self.rng.random(n))]
        return list(np.where(is_stop, stops, content))

    def sentence_lengths(self, total: int) -> list[int]:
        lengths = []
        while total > 0:
            n = int(min(total, max(6, self.rng.integers(8, 37))))
            lengths.append(n)
            total -= n
        return lengths

    def digits(self, n: int) -> str:
        return "".join(str(d) for d in self.rng.integers(0, 10, n))


def _sentence(words: list[str]) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _noise(w: _Writer) -> list[str]:
    """One sentence per noise kind targeted by the default removal rules."""
    d = w.digits
    docket = f"{d(7)}-{d(2)}.{d(4)}.{d(1)}.{d(2)}.{d(4)}"
    cpf = f"{d(3)}.{d(3)}.{d(3)}-{d(2)}"
    cnpj = f"{d(2)}.{d(3)}.{d(3)}/{d(4)}-{d(2)}"
    money = f"R$ {w.rng.integers(1, 999)}.{d(3)},{d(2)}"
    filler = w.tokens(8)
    return [
        _sentence(["nos", "autos", "do", "processo", "nº", docket] + filler[:3]),
        _sentence(["inscrito", "no", "CPF", "sob", "nº", cpf, "e", "CNPJ", cnpj] + filler[3:5]),
        _sentence(["o", "valor", "da", "causa", "é", "de", money] + filler[5:]),
        _sentence(["conforme", "fls.", str(w.rng.integers(10, 999)), "e", "art.", f"{w.rng.integers(1, 300)}º", "da", "Lei", d(4), "de", str(w.rng.integers(1990, 2023))]),
        _sentence(["residente", "na", "Rua", w.tokens(1)[0].capitalize(), str(w.rng.integers(1, 3000)), "CEP", d(8)]),
    ]


def make_themes(w: _Writer) -> tuple[list[tuple[str, str]], list[list[str]]]:
    """190 themes and their key terms; key terms are unique to one theme."""
    lengths = quantile_lengths(THEME_COUNT, 0.0, 1.0, THEME_MEDIAN_WORDS, THEME_SIGMA)
    w.rng.shuffle(lengths)
    # key terms come from the vocabulary's mid band: frequent enough to read
    # as ordinary words, rare enough that filler seldom repeats them
    band = w.vocab[THEME_REGISTER[1] : THEME_REGISTER[1] + 40 * THEME_COUNT]
    picks = w.rng.permutation(len(band))[: KEY_TERMS_PER_THEME * THEME_COUNT]
    themes, keys = [], []
    for t, length in enumerate(lengths):
        key = [str(x) for x in band[picks[t * KEY_TERMS_PER_THEME : (t + 1) * KEY_TERMS_PER_THEME]]]
        length = max(length, KEY_TERMS_PER_THEME + 4)
        words = ["discute-se"] + w.theme_tokens(length - KEY_TERMS_PER_THEME - 1)
        for term in key:
            words.insert(int(w.rng.integers(1, len(words) + 1)), term)
        themes.append((f"T{t:03d}", " ".join(words)))
        keys.append(key)
    return themes, keys


def _appeal_text(w: _Writer, words: int, gold_keys: list[str], distractor_keys: list[list[str]]) -> str:
    header = [
        _sentence(["excelentíssimo", "senhor", "desembargador", "relator", "do", "tribunal"] + w.tokens(10)),
        *_noise(w),
        CORE_START + ".",
    ]
    trailer = [CORE_END + ".", *_noise(w), _sentence(["termos", "em", "que", "pede", "deferimento"] + w.tokens(6))]
    inserted = []
    # noise recurs through the body, about once per 800 words
    for _ in range(max(1, words // 800)):
        inserted += _noise(w)
    # the gold theme's key terms recur in a handful of sentences
    for _ in range(max(4, words // GOLD_EVERY)):
        terms = list(w.rng.choice(gold_keys, size=GOLD_TERMS, replace=False))
        inserted.append(_sentence(w.tokens(6) + terms + w.tokens(6)))
    for key in distractor_keys:
        terms = list(w.rng.choice(key, size=2, replace=False))
        inserted.append(_sentence(w.tokens(8) + terms + w.tokens(8)))

    used = sum(len(s.split()) for s in header + trailer + inserted)
    sentences = [_sentence(w.tokens(n)) for n in w.sentence_lengths(max(words - used, 60))]
    for s in inserted:
        sentences.insert(int(w.rng.integers(0, len(sentences) + 1)), s)
    return " ".join(header + sentences + trailer)


def make_corpus(shape: CorpusShape, seed: int) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """Themes as (id, text) and appeals as (id, text, gold theme id).

    The vocabulary and the catalog are the same for every seed, as the
    paper's corpus has one catalog; the seed draws the appeals. A catalog
    drawn per seed would move the quality metrics more between seeds than
    the appeals do.
    """
    w = _Writer(np.random.default_rng(CATALOG_SEED))
    themes, keys = make_themes(w)
    w.rng = np.random.default_rng(seed)
    lo_q, hi_q = length_quantile(shape.min_words), length_quantile(shape.max_words)
    lengths = quantile_lengths(shape.appeals - 1, lo_q, hi_q, PUBLISHED_MEDIAN_WORDS, APPEAL_SIGMA)
    lengths.append(shape.max_words)
    # one order for every seed: where the longest appeals fall decides how
    # evenly a pool's workers are loaded
    lengths = [lengths[i] for i in np.random.default_rng(CATALOG_SEED).permutation(len(lengths))]

    appeals = []
    for i, words in enumerate(lengths):
        gold = int(w.rng.integers(THEME_COUNT))
        others = [t for t in w.rng.choice(THEME_COUNT, size=4, replace=False) if t != gold][:3]
        text = _appeal_text(w, words, keys[gold], [keys[t] for t in others])
        appeals.append((f"A{i:05d}", text, themes[gold][0]))
    return themes, appeals


def corpus_stats(themes: list[tuple[str, str]], appeals: list[tuple[str, str, str]]) -> dict:
    """Word and character statistics of a generated corpus."""
    words = [len(text.split()) for _, text, _ in appeals]
    chars = [len(text) for _, text, _ in appeals]
    theme_words = [len(text.split()) for _, text in themes]
    return {
        "appeals": len(appeals),
        "median_words": statistics.median(words),
        "mean_words": round(statistics.fmean(words), 1),
        "min_words": min(words),
        "max_words": max(words),
        "total_words": sum(words),
        "max_chars": max(chars),
        "over_field_limit": sum(c > CSV_FIELD_LIMIT for c in chars),
        "themes": len(themes),
        "theme_median_words": statistics.median(theme_words),
        "theme_mean_words": round(statistics.fmean(theme_words), 1),
    }
