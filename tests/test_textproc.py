from __future__ import annotations

import importlib.util
import re
import sys
import unicodedata
from collections import Counter, defaultdict
from pathlib import Path

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
    fold,
    remove_noise,
    segment_sentences,
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


# every character that str.split() and re's \s split at
_WHITESPACE = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
# whitespace pieces that take tokenize's str.isalnum fast path and pieces
# that miss it: underscore runs, words with punctuation attached, combining
# marks that start a piece, and letters whose lowercase is not one
# alphanumeric character (İ lowers to i + U+0307; Σ to σ or, ending a word, ς)
_PIECES = st.sampled_from(
    ["_", "___", "a_b", "_x", "x_", "d'", "(lei)", "6.830/80", "art.", "§2º", "R$10,00",
     "\u0301a", "\u0308", "\u0345x", "İ", "İSSO", "Σ", "ΑΣ", "ΣΑΣ", "İΣ_", "ß", "٣𝟎", "—"]
) | st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=6)


class TestTokenizePieces:
    def test_whitespace_list_is_every_space(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert spaces == sorted(_WHITESPACE)

    @given(
        st.text(st.sampled_from(_WHITESPACE), max_size=2),
        st.lists(st.tuples(_PIECES, st.text(st.sampled_from(_WHITESPACE), min_size=1, max_size=3)), max_size=10),
    )
    @settings(max_examples=1000, deadline=None)
    def test_pieces_match_alphanumeric_run_oracle(self, lead, pairs):
        text = lead + "".join(piece + gap for piece, gap in pairs)
        assert tokenize(text) == tokenize_brute(text)


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
        parts = segment_sentences("Primeira frase. Segunda frase.", PreprocessConfig())
        assert parts == ["Primeira frase.", "Segunda frase."]

    def test_abbreviation_guard(self):
        for guarded in ["art.", "Art.", "art..", "fls.!", "nº…"]:
            parts = segment_sentences(f"Conforme {guarded} 40 da lei. Outro ponto.", PreprocessConfig())
            assert parts == [f"Conforme {guarded} 40 da lei.", "Outro ponto."], guarded

    def test_unkeyed_abbreviation_guards(self):
        # the config keys its entries, so an entry written as it appears guards
        config = PreprocessConfig(abbreviations={"Art."})
        assert segment_sentences("Veja o Art. 5 da lei.", config) == ["Veja o Art. 5 da lei."]

    def test_no_terminal_punctuation(self):
        text = "texto sem pontuação final"
        parts = segment_sentences(text, PreprocessConfig())
        assert parts == [text]

    def test_split_requires_uppercase_or_digit(self):
        parts = segment_sentences("Valor de 1.5. e depois nada", PreprocessConfig())
        assert len(parts) == 1

    def test_digit_starts_sentence(self):
        parts = segment_sentences("Fim da primeira. 40 dias depois veio outra.", PreprocessConfig())
        assert len(parts) == 2

    @given(st.text(min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_preserves_non_whitespace_characters(self, text):
        joined = " ".join(segment_sentences(text, PreprocessConfig()))
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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"removal_patterns": [r"\d+"]}, "removal_patterns entries must be RemovalRule, got"),
            ({"core_start_markers": "DAS RAZÕES"}, "core_start_markers must be a collection, got the string"),
            ({"abbreviations": "art"}, "abbreviations must be a collection, got the string 'art'"),
            ({"core_end_markers": ("FIM", 5)}, "core_end_markers entries must be str, got 5"),
        ],
    )
    def test_misshapen_field_refused_at_construction(self, fields, message):
        # a raw regex would fail every appeal; a bare string would run as
        # one-character entries
        with pytest.raises(ValueError, match=message):
            PreprocessConfig(**fields)

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


# Characters that re.IGNORECASE treats as one letter, grouped; stopwords
# drawn from them and a text holding their other case variants meet the
# classes of s, i, μ and σ, which need the fold table, and classes that
# str.lower closes alone.
CASE_VARIANTS = ("aA", "sSſ", "kK\u212a", "iIıİ", "µμΜ", "σςΣ", "ßẞ", "éÉ", "dD", "tT")
WORD_CHARS = "".join(CASE_VARIANTS) + "1"
STOPWORD_CHARS = WORD_CHARS + "'/.-_"


@st.composite
def stopwords_and_text(draw):
    words = draw(
        st.frozensets(st.text(alphabet=WORD_CHARS, min_size=1, max_size=4), max_size=8)
        | st.sampled_from(
            [
                frozenset(),
                frozenset({"a", "as", "até"}),
                frozenset({"d", "da", "c"}),
                frozenset({"s", "ſx", "k", "\u212ay", "i", "ıa", "ΣΑΣ"}),
            ]
        )
    )

    def variants(word):
        groups = [next((g for g in CASE_VARIANTS if ch in g), ch) for ch in word]
        return st.tuples(*map(st.sampled_from, groups)).map("".join)

    piece = st.text(alphabet=STOPWORD_CHARS + "ǅÉ ", max_size=4) | st.sampled_from(
        [" ", "", "_", ".", "\u00a0", "\n", "\u0345"]
    )
    if words:
        piece |= st.sampled_from(sorted(words)).flatmap(variants)
    pieces = draw(st.lists(piece, max_size=12))
    return words, "".join(pieces)


def ignorecase_removal(text: str, words: frozenset[str]) -> str:
    """The stopword step as the longest-first alternation under
    re.IGNORECASE, then the whitespace collapse."""
    expected = unicodedata.normalize("NFC", text)
    if words:
        expected = stopword_regex_brute(words).sub(" ", expected)
    return re.sub(r"\s+", " ", expected).strip()


class TestLinearKernelsMatchOracles:
    """The stopword word filter and the terminal-run segmentation give the
    same output as the alternation and the per-character loop."""

    @given(stopwords_and_text())
    @settings(max_examples=600, deadline=None)
    def test_stopword_removal_matches_alternation(self, case):
        words, text = case
        config = PreprocessConfig(stopwords=words, removal_patterns=())
        assert remove_noise(text, config) == ignorecase_removal(text, words)

    def test_every_whitespace_character_collapses(self):
        config = PreprocessConfig(stopwords=frozenset(), removal_patterns=())
        for space in map(chr, range(sys.maxunicode + 1)):
            if space.isspace():
                text = f"{space}a{space} {space}b{space * 3}c {space}"
                assert remove_noise(text, config) == "a b c", hex(ord(space))

    @pytest.mark.parametrize("entry", ["d'", "c/", "ſ.x", "\u212a'y", "ı-a", "a_b", "", "\u0345"])
    def test_entry_that_is_not_one_word_refused(self, entry):
        # entries are single [^\W_]+ words: one that spans punctuation, or
        # holds none, is refused rather than matched across a separator
        with pytest.raises(ValueError, match="is not one word"):
            PreprocessConfig(stopwords=frozenset({entry, "d", "s"}), removal_patterns=())

    def test_hundreds_of_nested_prefixes_match_alternation(self):
        words = frozenset("a" * i for i in range(1, 1000))
        text = " ".join(["a" * i for i in (1, 2, 57, 398, 999, 1000, 1001)] + ["b", "a_a", "aab"])
        config = PreprocessConfig(stopwords=words, removal_patterns=())
        expected = ignorecase_removal(text, words)
        assert remove_noise(text, config) == expected
        assert expected.split() == ["a" * 1000, "a" * 1001, "b", "_", "aab"]

    @given(
        st.lists(
            st.sampled_from(
                [".", "!", "?", "…", "..", " ", "\u00a0", "\u2028", "\n", "\x1f", "\x85", "\u3000",
                 "art", "fls", "Dr",
                 "nº", "§", "prazo", "Éxito", "ǅemal", "É", "40", "x", "p\xe1g", "pa\u0301g"]
            ),
            min_size=1,
            max_size=30,
        ).map("".join),
        st.sampled_from(
            [DEFAULT_ABBREVIATIONS, frozenset(), frozenset({"x", "prazo", "art", "p\xe1g"})]
        ),
    )
    @settings(max_examples=600, deadline=None)
    def test_segmentation_matches_character_loop(self, text, abbreviations):
        config = PreprocessConfig(abbreviations=abbreviations)
        assert segment_sentences(text, config) == segment_sentences_brute(text, abbreviations)


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

    def test_remove_noise_matches_readable_step_on_a_generated_corpus(self, monkeypatch):
        # appeals from the benchmark's generator: its Zipf vocabulary, noise
        # kinds and Portuguese stopword stream, byte for byte
        path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)
        spec.loader.exec_module(gen)
        _, appeals = gen.make_corpus(gen.CorpusShape(4, 1, 8000), seed=11)
        for _, text, _ in appeals:
            assert remove_noise(text, PreprocessConfig()) == remove_noise_brute(text, default_stopwords())


class TestFold:
    """``fold`` is the case key of the stopword filter; ``re.IGNORECASE`` is
    the contract it keeps."""

    def test_fold_classes_are_re_ignorecase_classes(self):
        word_chars = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isalnum())
        by_fold = defaultdict(set)
        for ch in word_chars:
            by_fold[fold(ch)].add(ch)
        letters = set("".join(CASE_VARIANTS)) | set("".join(default_stopwords()))
        for c in sorted(letters):
            matched = set(re.findall(re.escape(c), word_chars, re.IGNORECASE))
            assert by_fold[fold(c)] == matched, c

    def test_capital_sigma_at_a_word_end(self):
        # str.lower gives ς for a word-final Σ; re matches Σ to σ anywhere
        assert "ΑΣ".lower() == "ας" and fold("ΑΣ") == fold("ας") == fold("ασ") == "ασ"
        config = PreprocessConfig(stopwords=frozenset({"ασ"}), removal_patterns=())
        assert remove_noise("ΑΣ Ασ ας ΑΣΑ", config) == "ΑΣΑ" == ignorecase_removal("ΑΣ Ασ ας ΑΣΑ", {"ασ"})

    def test_dotted_capital_i(self):
        # str.lower makes İ two characters, i and U+0307; re matches it to i
        assert len("İSSO".lower()) == 5 and fold("İSSO") == "isso"
        for entry in ("isso", "İSSO", "ISSO"):
            config = PreprocessConfig(stopwords=frozenset({entry}), removal_patterns=())
            assert remove_noise("İSSO isso Isso ıSSO isto", config) == "isto", entry

    def test_ypogegrammeni_is_not_a_word(self):
        # U+0345 is not [^\W_], so the filter never removes it, though
        # re.IGNORECASE matches it to ι; as an entry it is refused
        text = "a \u0345 ι Ι b"
        config = PreprocessConfig(stopwords=frozenset({"ι"}), removal_patterns=())
        assert remove_noise(text, config) == "a \u0345 b"
        assert ignorecase_removal(text, frozenset({"ι"})) == "a b"
