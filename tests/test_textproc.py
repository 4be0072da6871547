from __future__ import annotations

import re
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    READABLE_REMOVAL_PATTERNS,
    remove_noise_brute,
    segment_sentences_brute,
    stopword_regex_brute,
    tokenize_brute,
)
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
    term_counts,
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

    @given(
        st.lists(
            st.text(max_size=8)
            | st.sampled_from(["_", "__", "a_b", "٣", "𝟎", "\u0301", "e\u0301", "ΑΣ", "ΑΣ_", " "]),
            max_size=12,
        ).map("".join)
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_alphanumeric_run_oracle(self, text):
        assert tokenize(text) == tokenize_brute(text)

    def test_underscore_separates(self):
        assert tokenize("a_b __ ΑΣ_x") == ["a", "b", "ας", "x"]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


# characters whose normalisation or lowercasing could depend on their
# neighbours: combining marks, capital sigma (final or not), dotted capital I,
# NBSP, apostrophes and decomposed/compatibility forms
_TRICKY = "Σσς\u0301\u0308\u0327\u0307İI\u00a0'’.-_ßÅ\u212bΑΒe1"


@st.composite
def stripped_parts(draw):
    chars = st.sampled_from(_TRICKY) | st.characters(blacklist_categories=("Cs",))
    parts = draw(st.lists(st.text(chars, min_size=1, max_size=12), min_size=1, max_size=6))
    edges = draw(st.lists(st.sampled_from(["", "Σ", "ΑΣ", "Σ'", "\u0301", "İ"]), min_size=2, max_size=2))
    parts = [edges[i % 2] + part + edges[(i + 1) % 2] for i, part in enumerate(parts)]
    return [part.strip() for part in parts if part.strip()]


class TestTokenizeJoin:
    """A summary's text is its sentences joined by single spaces; its tokens
    are the concatenation of the sentences' tokens."""

    @settings(max_examples=400, deadline=None)
    @given(stripped_parts())
    def test_tokens_of_joined_parts_are_concatenated_tokens(self, parts):
        concatenated = [token for part in parts for token in tokenize(part)]
        assert tokenize(" ".join(parts)) == concatenated

    def test_final_sigma_at_part_edges(self):
        parts = ["ΑΣ", "ΣΑ", "Α\u00a0ΑΣ", "İΣ\u0301"]
        assert tokenize(" ".join(parts)) == [t for part in parts for t in tokenize(part)]
        assert tokenize("ΑΣ ΣΑ")[0] == "ας"


class TestTermCounts:
    def test_single_doc_statistics(self):
        terms, counts = term_counts([["a", "b", "a"]])
        assert terms == ("a", "b")
        assert counts.toarray().tolist() == [[2.0, 1.0]]
        assert counts.toarray().sum(axis=1).tolist() == [3.0]

    def test_two_doc_statistics(self):
        terms, counts = term_counts([["a"], ["b"]])
        assert terms == ("a", "b")
        assert counts.getnnz(axis=0).tolist() == [1, 1]
        assert counts.toarray().sum(axis=1).tolist() == [1.0, 1.0]

    def test_no_documents(self):
        terms, counts = term_counts([])
        assert terms == () and counts.shape == (0, 0)

    def test_all_documents_empty(self):
        terms, counts = term_counts([[], [], []])
        assert terms == () and counts.shape == (3, 0)
        assert counts.nnz == 0 and counts.indptr.tolist() == [0, 0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "ab", "B", "é", "ção", "z", "9", "ß", "日本"]), max_size=12
            ),
            max_size=8,
        )
    )
    def test_matches_counter_per_document(self, token_lists):
        # empty documents, repeated tokens and non-ASCII terms
        terms, counts = term_counts(token_lists)
        assert terms == tuple(sorted({t for tokens in token_lists for t in tokens}))
        assert counts.shape == (len(token_lists), len(terms))
        for row, tokens in enumerate(token_lists):
            start, end = counts.indptr[row], counts.indptr[row + 1]
            columns = counts.indices[start:end].tolist()
            assert columns == sorted(set(columns))
            got = {terms[c]: v for c, v in zip(columns, counts.data[start:end].tolist())}
            assert got == Counter(tokens)
            assert sum(got.values()) == len(tokens)


class TestSegmentSentences:
    def test_two_plain_sentences(self):
        parts = [s.text for s in segment_sentences("Primeira frase. Segunda frase.")]
        assert parts == ["Primeira frase.", "Segunda frase."]

    def test_abbreviation_guard(self):
        for guarded in ["art.", "Art.", "art..", "fls.!", "nº…"]:
            parts = [s.text for s in segment_sentences(f"Conforme {guarded} 40 da lei. Outro ponto.")]
            assert parts == [f"Conforme {guarded} 40 da lei.", "Outro ponto."], guarded

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

    @pytest.mark.parametrize(
        "text",
        [
            "residente na Av. Paulista 100, bairro",
            "residente na Avenida Paulista 100, bairro",
            "residente na Av.Paulista 100, bairro",
        ],
    )
    def test_address_removed_after_every_street_word(self, text):
        # the address runs to the end: "Av." is removed before a space too
        assert remove_noise(text, PreprocessConfig()) == "residente"

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

    def test_every_whitespace_character_collapses(self):
        config = PreprocessConfig(stopwords=frozenset(), removal_patterns=())
        for space in map(chr, range(sys.maxunicode + 1)):
            if space.isspace():
                text = f"{space}a{space} {space}b{space * 3}c {space}"
                assert remove_noise(text, config) == "a b c", hex(ord(space))

    def test_case_variant_on_another_branch_keeps_longest_word(self):
        # "ſ.x" matches "s.x" under IGNORECASE; an ſ branch apart from the s
        # branch would stop at "s"
        config = PreprocessConfig(stopwords=frozenset({"s", "ſ.x"}), removal_patterns=())
        assert remove_noise("s.x y", config) == "y"

    def test_hundreds_of_nested_prefixes_match_alternation(self):
        # one group per word end along an entry: the pattern is built without
        # recursion, and re compiles 399 nested groups
        words = frozenset("a" * i for i in range(1, 400))
        text = " ".join(["a" * i for i in (1, 2, 57, 398, 399, 400, 401)] + ["b", "a_a", "aab"])
        expected = stopword_regex_brute(words).sub(" ", text)
        assert stopword_regex(words).sub(" ", text) == expected
        assert expected.split() == ["a" * 400, "a" * 401, "b", "_", "aab"]

    def test_deeply_nested_prefixes_raise_value_error(self):
        # 1,000 nested groups exceed Python's recursion limit in re's parser
        with pytest.raises(ValueError, match="recursion limit"):
            stopword_regex(frozenset("a" * i for i in range(1, 1001)))

    @given(
        st.lists(
            st.sampled_from(
                [".", "!", "?", "…", "..", " ", "\u00a0", "\u2028", "\n", "\x1f", "\x85", "\u3000",
                 "art", "fls", "Dr",
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


# Pieces around every edge of the default rules: ASCII and non-ASCII digits
# (re's \d is Unicode), the mask separators, letters and "_" against digits,
# street words whole, cut short and inside words, stopwords, and whitespace
# that is not a plain space.
NOISE_PIECES = st.sampled_from(
    [
        "0", "1", "12", "123", "1234", "٣", "۵", "١٢٣٤",
        ".", "-", "/", ",", "_", "R$", "R$ ", "R",
        "a", "x", "Z", "é", "ç",
        "Rua", "Avenida", "Av", "Av.", "A", "v.", "Travessa", "Alameda", "Praça", "Rodovia",
        "rua", "Ruas", "Praca", "!", "…",
        "de", "a", "na", "De", "o",
        " ", "  ", "\u00a0", "\t", "\n", "\u2028", "\x0b", "\x0c", "\r", "\x1c", "\x1d",
        "\x1e", "\x1f", "\x85", "\u3000",
        "0001234-56.2020.4.02.5101", "123.456.789-01", "12.345.678/0001-90",
        "١٢٣.٤٥٦.٧٨٩-٠١",
    ]
)


class TestDefaultRulesMatchReadableOracles:
    """The prefix-scannable default rules remove what their readable forms
    in ``tests/oracles.py`` remove, and so does the whole default step."""

    def test_same_rules_in_the_same_order(self):
        assert [rule.name for rule in default_removal_rules()] == list(READABLE_REMOVAL_PATTERNS)

    @given(st.lists(NOISE_PIECES, max_size=16).map("".join))
    @settings(max_examples=1500, deadline=None)
    def test_each_rule_matches_its_readable_form(self, text):
        for rule in default_removal_rules():
            expected = re.sub(READABLE_REMOVAL_PATTERNS[rule.name], " ", text)
            assert rule.pattern.sub(" ", text) == expected, rule.name

    @given(st.lists(NOISE_PIECES, max_size=16).map("".join))
    @settings(max_examples=800, deadline=None)
    def test_remove_noise_matches_readable_step(self, text):
        expected = remove_noise_brute(text, default_stopwords())
        assert remove_noise(text, PreprocessConfig()) == expected
