from __future__ import annotations

import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import segment_sentences_brute, stopword_regex_brute
from themerank.textproc import (
    DEFAULT_ABBREVIATIONS,
    PreprocessConfig,
    RemovalRule,
    default_removal_rules,
    default_stopwords,
    extract_core,
    remove_noise,
    segment_sentences,
    stopword_regex,
    tokenize,
)


class TestTokenize:
    def test_legal_citation(self):
        assert tokenize("Lei nº 6.830/80") == ["lei", "nº", "6", "830", "80"]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercases_accented_text(self):
        assert tokenize("PRESCRIÇÃO intercorrente") == ["prescrição", "intercorrente"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... !!! ???") == []

    def test_digits_kept(self):
        assert tokenize("processo 123 de 2020") == ["processo", "123", "de", "2020"]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestSegmentSentences:
    def test_two_plain_sentences(self):
        parts = [s.text for s in segment_sentences("Primeira frase. Segunda frase.")]
        assert parts == ["Primeira frase.", "Segunda frase."]

    def test_abbreviation_guard(self):
        parts = [s.text for s in segment_sentences("Conforme art. 40 da lei. Outro ponto.")]
        assert parts == ["Conforme art. 40 da lei.", "Outro ponto."]

    def test_no_terminal_punctuation(self):
        text = "texto sem pontuação final"
        parts = segment_sentences(text)
        assert len(parts) == 1 and parts[0].text == text

    def test_split_requires_uppercase_or_digit(self):
        parts = [s.text for s in segment_sentences("Valor de 1.5. e depois nada")]
        assert len(parts) == 1

    def test_digit_starts_sentence(self):
        parts = [s.text for s in segment_sentences("Fim da primeira. 40 dias depois veio outra.")]
        assert len(parts) == 2

    def test_indices_contiguous(self):
        parts = segment_sentences("Um. Dois! Três? Quatro.")
        assert [s.index for s in parts] == list(range(len(parts)))

    @given(st.text(min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_preserves_non_whitespace_characters(self, text):
        joined = " ".join(s.text for s in segment_sentences(text))
        assert "".join(joined.split()) == "".join(text.split())


class TestRemoveNoise:
    def test_disabled_is_identity(self):
        config = PreprocessConfig(remove_terms=False)
        text = "Processo 0001234-56.2020.4.02.5101 na Rua X, 100"
        assert remove_noise(text, config) is text

    def test_whole_word_stopwords(self):
        config = PreprocessConfig(
            stopwords=frozenset({"a", "de"}), removal_patterns=()
        )
        assert remove_noise("a casa de João", config) == "casa João"

    def test_stopword_not_removed_inside_word(self):
        config = PreprocessConfig(stopwords=frozenset({"a"}), removal_patterns=())
        assert remove_noise("casa", config) == "casa"

    def test_default_patterns_golden(self):
        # frozen output of the shipped default pattern set
        config = PreprocessConfig()
        out = remove_noise("Processo 0001234-56.2020.4.02.5101 na Rua X, 100", config)
        assert out == "Processo"

    def test_registry_and_monetary_patterns(self):
        config = PreprocessConfig(stopwords=frozenset())
        out = remove_noise("CPF 123.456.789-01 pagou R$ 1.234,56 em 2020", config)
        assert out == "CPF pagou em"

    def test_invalid_pattern_reported_at_config_load(self):
        with pytest.raises(ValueError, match="broken"):
            RemovalRule.compile("broken", "[unclosed")

    def test_pattern_order_is_declared_order(self):
        first = RemovalRule.compile("grab_all", r"x\d+")
        second = RemovalRule.compile("never_sees_digits", r"\d+")
        config = PreprocessConfig(
            stopwords=frozenset(), removal_patterns=(first, second)
        )
        assert remove_noise("x123 456", config) == ""

    @given(st.text(max_size=200))
    @settings(max_examples=150)
    def test_no_stopword_survives(self, text):
        config = PreprocessConfig()
        tokens = tokenize(remove_noise(text, config))
        assert not (set(tokens) & default_stopwords())


class TestExtractCore:
    def test_no_markers_is_identity(self):
        text = "Texto qualquer sem marcadores."
        assert extract_core(text) is text

    def test_span_between_markers(self):
        config = PreprocessConfig(
            core_start_markers=("DAS RAZÕES",), core_end_markers=("DO PEDIDO",)
        )
        text = "Preâmbulo DAS RAZÕES o núcleo do recurso DO PEDIDO listagem final"
        assert extract_core(text, config) == " o núcleo do recurso "

    def test_first_start_last_end(self):
        config = PreprocessConfig(core_start_markers=("INICIO",), core_end_markers=("FIM",))
        text = "a INICIO b FIM c INICIO d FIM e"
        assert extract_core(text, config) == " b FIM c INICIO d "

    def test_marker_without_pair_is_identity(self):
        config = PreprocessConfig(core_start_markers=("INICIO",), core_end_markers=("FIM",))
        text = "a INICIO b c"
        assert extract_core(text, config) is text

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            extract_core("")


def test_unknown_marker_text_with_defaults_is_identity():
    text = "Qualquer texto. Sem marcadores configurados."
    assert extract_core(text, PreprocessConfig()) is text


# Characters that re.IGNORECASE treats as one letter, grouped; a stopword set
# and a text drawn from them put case variants of one letter on different
# trie branches unless the trie is keyed by case class.
CASE_VARIANTS = ("aA", "sSſ", "kK\u212a", "iIıİ", "µμΜ", "σςΣ", "ßẞ", "éÉ", "dD", "tT")
STOPWORD_CHARS = "".join(CASE_VARIANTS) + "'/.-_1"


@st.composite
def stopwords_and_text(draw):
    words = draw(
        st.frozensets(st.text(alphabet=STOPWORD_CHARS, min_size=1, max_size=4), max_size=8)
        | st.sampled_from(
            [
                frozenset(),
                frozenset({"a", "as", "até"}),
                frozenset({"d'", "d", "da", "c/", "c"}),
                frozenset({"s", "ſ.x", "k", "\u212a'y", "i", "ı-a"}),
            ]
        )
    )

    def variants(word):
        groups = [next((g for g in CASE_VARIANTS if ch in g), ch) for ch in word]
        return st.tuples(*map(st.sampled_from, groups)).map("".join)

    piece = st.text(alphabet=STOPWORD_CHARS + "ǅÉ ", max_size=4) | st.sampled_from(
        [" ", "", "_", ".", "\u00a0", "\n"]
    )
    if words:
        piece |= st.sampled_from(sorted(words)).flatmap(variants)
    pieces = draw(st.lists(piece, max_size=12))
    return words, "".join(pieces)


class TestLinearKernelsMatchOracles:
    """The prefix-trie stopword regex and the terminal-run segmentation give
    the same output as the alternation and the per-character loop."""

    @given(stopwords_and_text())
    @settings(max_examples=600, deadline=None)
    def test_stopword_removal_matches_alternation(self, case):
        words, text = case
        config = PreprocessConfig(stopwords=words, removal_patterns=())
        expected = unicodedata.normalize("NFC", text)
        if words:
            expected = stopword_regex_brute(words).sub(" ", expected)
        expected = re.sub(r"\s+", " ", expected).strip()
        assert remove_noise(text, config) == expected

    def test_case_variant_on_another_branch_keeps_longest_word(self):
        # "ſ.x" matches "s.x" under IGNORECASE; an ſ branch apart from the s
        # branch would stop at "s"
        config = PreprocessConfig(stopwords=frozenset({"s", "ſ.x"}), removal_patterns=())
        assert remove_noise("s.x y", config) == "y"

    def test_deeply_nested_prefixes_raise_value_error(self):
        # one group per word end along an entry: 399 nested prefixes exceed
        # Python's recursion limit while the pattern is built
        with pytest.raises(ValueError, match="recursion limit"):
            stopword_regex(frozenset("a" * i for i in range(1, 400)))

    @given(
        st.lists(
            st.sampled_from(
                [".", "!", "?", "…", "..", " ", "\u00a0", "\u2028", "\n", "art", "fls", "Dr",
                 "nº", "§", "prazo", "Éxito", "ǅemal", "É", "40", "x"]
            ),
            min_size=1,
            max_size=30,
        ).map("".join),
        st.sampled_from([DEFAULT_ABBREVIATIONS, frozenset(), frozenset({"x", "prazo", "art"})]),
    )
    @settings(max_examples=600, deadline=None)
    def test_segmentation_matches_character_loop(self, text, abbreviations):
        sentences = segment_sentences(text, abbreviations)
        assert [s.text for s in sentences] == segment_sentences_brute(text, abbreviations)
        assert [s.index for s in sentences] == list(range(len(sentences)))
