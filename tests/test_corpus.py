from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from themerank.corpus import (
    AppealRecord,
    CorpusError,
    ThemeRecord,
    corpus_stats,
    gold_labels,
    load_appeals,
    load_themes,
    write_appeals,
    write_themes,
)


class TestLoadAppeals:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,text,theme\nA1,um texto,T1\nA2,outro texto,\n", encoding="utf-8")
        records = load_appeals(path)
        assert records == [
            AppealRecord("A1", "um texto", "T1"),
            AppealRecord("A2", "outro texto", None),
        ]

    def test_missing_text_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,body\nA1,um texto\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="text"):
            load_appeals(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_appeals(tmp_path / "nope.csv")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,text,theme\nA1,um,\nA1,dois,\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate id"):
            load_appeals(path)

    def test_empty_text_reports_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,text,theme\nA1,um,\nA2,   ,\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="row 3"):
            load_appeals(path)

    def test_short_row_reports_row_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,text,theme\nA1\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="too few fields"):
            load_appeals(path)

    def test_theme_column_optional(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,text\nA1,um texto\n", encoding="utf-8")
        records = load_appeals(path)
        assert records[0].label_theme_id is None

    def test_quoted_fields_with_delimiter_and_newline(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text('id,text,theme\nA1,"uma, linha\ncom quebra",T9\n', encoding="utf-8")
        records = load_appeals(path)
        assert records[0].raw_text == "uma, linha\ncom quebra"

    def test_custom_delimiter_and_columns(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("codigo\tcorpo\nA1\tum texto\n", encoding="utf-8")
        records = load_appeals(path, delimiter="\t", id_col="codigo", text_col="corpo")
        assert records == [AppealRecord("A1", "um texto", None)]


    def test_field_past_csv_default_limit(self, tmp_path):
        long_text = "palavra " * 40_000  # 320,000 chars; csv's default limit is 131,072
        path = tmp_path / "a.csv"
        write_appeals(path, [AppealRecord("A1", long_text, "T1")])
        assert load_appeals(path) == [AppealRecord("A1", long_text, "T1")]

    def test_byte_order_mark_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("\ufeffid,text,theme\nA1,um texto,T1\n", encoding="utf-8")
        assert load_appeals(path) == [AppealRecord("A1", "um texto", "T1")]

    @pytest.mark.parametrize("blank", [" ", "\t\n", "\u00a0\u2003", "\u3000\x1c"])
    def test_whitespace_only_text_rejected(self, tmp_path, blank):
        path = tmp_path / "a.csv"
        write_appeals(path, [AppealRecord("A1", "um texto"), AppealRecord("A2", blank)])
        with pytest.raises(CorpusError, match="empty text"):
            load_appeals(path)


class TestLoadThemes:
    def test_single_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,text\nT1,um tema\n", encoding="utf-8")
        catalog = load_themes(path)
        assert len(catalog) == 1
        assert list(catalog) == [ThemeRecord("T1", "um tema")]

    def test_duplicate_theme_id(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,text\nT1,um\nT1,dois\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            load_themes(path)

    def test_empty_theme_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,text\nT1,\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty text"):
            load_themes(path)

    def test_byte_order_mark_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\ufeffid,text\nT1,um tema\n", encoding="utf-8")
        assert list(load_themes(path)) == [ThemeRecord("T1", "um tema")]

    def test_whitespace_only_text_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_themes(path, [ThemeRecord("T1", "\u00a0 \t")])
        with pytest.raises(CorpusError, match="empty text"):
            load_themes(path)

    def test_insertion_order_preserved(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,text\nT9,nove\nT1,um\nT5,cinco\n", encoding="utf-8")
        assert [theme.id for theme in load_themes(path)] == ["T9", "T1", "T5"]


class TestRoundTrip:
    def test_appeals_round_trip(self, tmp_path):
        records = [
            AppealRecord("A1", "texto com, vírgula", "T1"),
            AppealRecord("A2", "linha\nquebrada aqui", None),
            AppealRecord("A3", 'aspas "internas" também', "T2"),
        ]
        path = tmp_path / "round.csv"
        write_appeals(path, records)
        assert load_appeals(path) == records

    def test_themes_round_trip(self, tmp_path):
        themes = [ThemeRecord("T1", "um tema qualquer"), ThemeRecord("T2", "outro, tema")]
        path = tmp_path / "round.csv"
        write_themes(path, themes)
        assert list(load_themes(path)) == themes


# Any Unicode but lone surrogates, which UTF-8 cannot encode, and NUL, which
# Python 3.10's csv reader rejects; quotes, delimiters and \r/\n come up often.
_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
_FIELD = st.text(st.one_of(_CHARS, st.sampled_from('",;\t\r\n ')), max_size=40)
_ID = _FIELD.filter(lambda s: s and s == s.strip())
_TEXT = _FIELD.filter(lambda s: s.strip())
_DELIMITERS = st.sampled_from([",", ";", "\t", "|"])


def _unique_ids(records):
    return len({r.id for r in records}) == len(records)


class TestRoundTripProperty:
    @given(
        st.lists(
            st.builds(AppealRecord, _ID, _TEXT, st.one_of(st.none(), _ID)), max_size=8
        ).filter(_unique_ids),
        _DELIMITERS,
    )
    @settings(max_examples=100, deadline=None)
    def test_appeals(self, records, delimiter):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "a.csv"
            write_appeals(path, records, delimiter=delimiter)
            assert load_appeals(path, delimiter=delimiter) == records

    @given(st.lists(st.builds(ThemeRecord, _ID, _TEXT), max_size=8).filter(_unique_ids), _DELIMITERS)
    @settings(max_examples=100, deadline=None)
    def test_themes(self, themes, delimiter):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "t.csv"
            write_themes(path, themes, delimiter=delimiter)
            assert list(load_themes(path, delimiter=delimiter)) == themes


class TestCorpusStats:
    def test_single_document(self):
        report = corpus_stats([AppealRecord("A1", "um dois três quatro cinco")])
        assert (report.mean_words, report.median_words) == (5.0, 5.0)
        assert (report.min_words, report.max_words, report.doc_count) == (5, 5, 1)

    def test_two_documents(self):
        docs = [AppealRecord("A1", "um dois"), AppealRecord("A2", "um dois três quatro")]
        report = corpus_stats(docs)
        assert report.mean_words == 3.0
        assert report.median_words == 3.0
        assert (report.min_words, report.max_words) == (2, 4)

    def test_accepts_theme_records(self, tmp_path):
        # `themerank stats --input` reads a theme file as unlabelled appeal records
        path = tmp_path / "t.csv"
        write_themes(path, [ThemeRecord("T1", "um dois três"), ThemeRecord("T2", "um")])
        report = corpus_stats(load_appeals(path, theme_col=None))
        assert (report.doc_count, report.min_words, report.max_words) == (2, 1, 3)

    def test_empty_input_rejected(self):
        with pytest.raises(CorpusError):
            corpus_stats([])

    def test_permutation_invariant(self):
        rng = random.Random(3)
        docs = [AppealRecord(f"A{i}", " ".join(["w"] * rng.randint(1, 40))) for i in range(25)]
        baseline = corpus_stats(docs)
        for _ in range(5):
            rng.shuffle(docs)
            assert corpus_stats(docs) == baseline


class TestLabelValidation:
    def test_unresolvable_flagged_but_kept(self, tmp_path):
        themes_path = tmp_path / "t.csv"
        themes_path.write_text("id,text\nT1,um tema\n", encoding="utf-8")
        catalog = load_themes(themes_path)
        appeals = [
            AppealRecord("A1", "texto", "T1"),
            AppealRecord("A2", "texto", "T404"),
            AppealRecord("A3", "texto", None),
        ]
        assert gold_labels(appeals, catalog) == {"A1": "T1"}
