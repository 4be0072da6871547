from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from themerank import ranking
from themerank.config import (
    DEFAULT_CONFIG,
    ConfigError,
    ExperimentGrid,
    GridCell,
    apply_overrides,
    build_grid,
    build_pipeline,
    build_preprocess,
    cell_config,
    descriptor,
    load_run_config,
    report_fields,
)
from themerank.corpus import AppealRecord
from themerank.lexrank import SummaryConfig
from themerank.ranking import PipelineConfig
from themerank.textproc import (
    PreprocessConfig,
    load_stopwords,
    remove_noise,
    segment_sentences,
    tokenize,
)


def _leaf_paths(mapping, prefix=()):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


class TestLoadRunConfig:
    def test_defaults_without_file(self):
        config = load_run_config(None)
        assert config["k"] == 6
        assert config["representation"] == "guided_lexrank"
        assert config["summary"]["size"] == 15

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_config(str(tmp_path / "none.yaml"))

    def test_partial_file_merges_over_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("k: 3\nsummary:\n  alpha: 2.5\n", encoding="utf-8")
        config = load_run_config(str(path))
        assert config["k"] == 3
        assert config["summary"]["alpha"] == 2.5
        assert config["summary"]["size"] == 15  # untouched default

    def test_json_is_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"k": 2}', encoding="utf-8")
        assert load_run_config(str(path))["k"] == 2

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(str(path))

    @pytest.mark.parametrize(
        "body", ["summary: 5\n", "bm25: [1, 2]\n", "grid: remove\n", "appeal_columns: null\n"]
    )
    def test_section_not_a_mapping_names_it(self, tmp_path, body):
        path = tmp_path / "run.yaml"
        path.write_text(body, encoding="utf-8")
        section = body.split(":")[0]
        with pytest.raises(ConfigError, match=f"'{section}' must be a mapping"):
            load_run_config(str(path))

    @pytest.mark.parametrize("axis", ["preprocess", "representations", "summary_sizes", "similarity_methods"])
    def test_grid_axis_not_a_list_names_it(self, tmp_path, axis):
        path = tmp_path / "run.yaml"
        path.write_text(f"grid:\n  {axis}: remove\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"grid axis '{axis}' must be a list, got 'remove'"):
            load_run_config(str(path))

    @pytest.mark.parametrize(
        "key", ["core_start_markers", "core_end_markers", "abbreviations", "removal_patterns"]
    )
    def test_string_for_a_list_names_it(self, tmp_path, key):
        # a string would be iterated into one-character markers or abbreviations
        path = tmp_path / "run.yaml"
        path.write_text(f"preprocess:\n  {key}: RELATÓRIO\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'preprocess.{key}' must be a list"):
            load_run_config(str(path))

    def test_markers_must_be_strings(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("preprocess:\n  core_end_markers: [1, 2]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="'preprocess.core_end_markers' must be a list of strings"):
            load_run_config(str(path))

    def test_stopwords_must_be_a_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("preprocess:\n  stopwords: [de, da]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="'preprocess.stopwords' must be a file path or null"):
            load_run_config(str(path))

    def test_lists_and_nulls_accepted(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "preprocess:\n  core_start_markers: [RELATÓRIO]\n  core_end_markers: null\n"
            "  abbreviations: [art]\n  removal_patterns: null\n  stopwords: null\n",
            encoding="utf-8",
        )
        preprocess = build_preprocess(load_run_config(str(path)))
        assert preprocess.core_start_markers == ("RELATÓRIO",)
        assert preprocess.core_end_markers == ()
        assert preprocess.abbreviations == frozenset({"art"})
        # null removal patterns and stopwords are the dataclass defaults
        assert preprocess == PreprocessConfig(core_start_markers=("RELATÓRIO",), abbreviations={"art"})

    @pytest.mark.parametrize(
        "entries", ["[art, fls]", "[Art., Fls.]", "[ART]", "['art!', 'ART…']", "null"]
    )
    def test_abbreviations_match_any_case_with_or_without_period(self, tmp_path, entries):
        path = tmp_path / "run.yaml"
        path.write_text(f"preprocess:\n  abbreviations: {entries}\n", encoding="utf-8")
        preprocess = build_preprocess(load_run_config(str(path)))
        assert "art" in preprocess.abbreviations
        text = "Conforme o Art. 5 da lei. Fim."
        assert segment_sentences(text, preprocess) == [
            "Conforme o Art. 5 da lei.",
            "Fim.",
        ]

    @pytest.mark.parametrize(
        "entry, text, remove_terms",
        [
            # a decomposed entry; noise removal leaves the text in NFC
            ("pa\u0301g.", "Ver p\xe1g. 3 do anexo. Fim.", True),
            # a precomposed entry; without removal the text stays in NFD
            ("p\xe1g.", "Ver pa\u0301g. 3 do anexo. Fim.", False),
        ],
    )
    def test_abbreviations_guard_in_any_normal_form(self, entry, text, remove_terms):
        config = load_run_config(None)
        config["preprocess"].update(abbreviations=[entry], remove_terms=remove_terms)
        analysis = ranking.AppealAnalysis(AppealRecord("A1", text), build_preprocess(config))
        tokens = analysis.sentences.tokens
        assert len(tokens) == 2 and tokens[-1] == tokenize("Fim.")

    @pytest.mark.parametrize(
        "body, key",
        [
            ("summary:\n  mode: plain\n", "summary.mode"),
            ("summary:\n  treshold: 0.2\n", "summary.treshold"),
            ("representations: [lexrank]\n", "representations"),
            ("appeal_columns:\n  label: theme\n", "appeal_columns.label"),
            ("kk: 6\nk: 6.5\n", "kk"),  # the first fault in file order
        ],
    )
    def test_unknown_key_named(self, tmp_path, body, key):
        path = tmp_path / "run.yaml"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_run_config(str(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("k: 6.5\n", "'k' must be an integer, got 6.5"),
            ("k: true\n", "'k' must be an integer, got True"),
            ("summary:\n  alpha: [1]\n", "'summary.alpha' must be a number, got [1]"),
            ("summary:\n  tolerance: 1e-8\n", "'summary.tolerance' must be a number, got '1e-8'"),
            ("preprocess:\n  remove_terms: keep\n", "'preprocess.remove_terms' must be true or false"),
            ("representation: [lexrank]\n", "'representation' must be a string"),
            ("appeal_columns:\n  id: 3\n", "'appeal_columns.id' must be a string, got 3"),
            ("embeddings: [a.tsv]\n", "'embeddings' must be a file path or null"),
        ],
    )
    def test_scalar_of_the_wrong_type_named(self, tmp_path, body, message):
        path = tmp_path / "run.yaml"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(str(path))

    @pytest.mark.parametrize("keys", list(_leaf_paths(DEFAULT_CONFIG)), ids=".".join)
    def test_every_key_has_a_shape_its_default_fits(self, tmp_path, keys):
        # a key with no shape would fail its first load with a KeyError
        default = DEFAULT_CONFIG
        for key in keys:
            default = default[key]
        body = default
        for key in reversed(keys):
            body = {key: body}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(body), encoding="utf-8")
        assert load_run_config(str(path)) == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "body, key, line",
        [
            ("k: 3\nsummary:\n  size: 5\nk: 5\n", "k", 4),
            ("summary: {size: 5}\nsummary: {alpha: 2.0}\n", "summary", 2),
            ("summary:\n  size: 5\n  alpha: 2.0\n  size: 6\n", "size", 4),
        ],
        ids=["top-level", "section", "in-a-section"],
    )
    def test_key_written_twice_named(self, tmp_path, body, key, line):
        path = tmp_path / "run.yaml"
        path.write_text(body, encoding="utf-8")
        message = f"{path}: key {key!r} written twice, again on line {line}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(str(path))

    def test_key_brought_in_by_a_merge_may_be_written_out(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("summary:\n  <<: {size: 5, alpha: 2.0}\n  size: 7\n", encoding="utf-8")
        summary = load_run_config(str(path))["summary"]
        assert (summary["size"], summary["alpha"]) == (7, 2.0)

    def test_int_accepted_where_a_float_is_due(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("summary:\n  alpha: 2\n", encoding="utf-8")
        assert build_pipeline(load_run_config(str(path))).summary.alpha == 2.0

    def test_readme_config_block_holds_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Run configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]

        def key_paths(mapping, prefix=()):
            paths = set()
            for key, value in mapping.items():
                paths.add(prefix + (key,))
                if isinstance(value, dict):
                    paths |= key_paths(value, prefix + (key,))
            return paths

        assert key_paths(yaml.safe_load(block)) == key_paths(DEFAULT_CONFIG)
        path = tmp_path / "readme.yaml"
        path.write_text(block, encoding="utf-8")
        build_pipeline(load_run_config(str(path)))


class TestOverrides:
    def test_flags_win(self):
        config = load_run_config(None)
        merged = apply_overrides(config, {"k": 2, "summary_size": 9, "remove_terms": False})
        assert merged["k"] == 2
        assert merged["summary"]["size"] == 9
        assert merged["preprocess"]["remove_terms"] is False

    def test_none_values_ignored(self):
        config = load_run_config(None)
        merged = apply_overrides(config, {"k": None})
        assert merged["k"] == 6


class TestBuildPipeline:
    def test_defaults(self):
        pipeline = build_pipeline(load_run_config(None))
        assert pipeline.k == 6
        assert pipeline.representation == "guided_lexrank"
        assert pipeline.summary.size == 15
        assert pipeline.bm25.k1 == 1.5

    def test_defaults_are_the_dataclass_defaults(self):
        assert build_pipeline(load_run_config(None)) == PipelineConfig()

    def test_summary_mode_follows_representation(self):
        config = load_run_config(None)
        config["representation"] = "lexrank"
        config["summary"].update({"alpha": 0.0, "beta": 0.0})
        assert build_pipeline(config).summary == SummaryConfig(alpha=0.0, beta=0.0)
        config["representation"] = "guided_lexrank"
        with pytest.raises(ConfigError, match="guided_lexrank requires alpha \\+ beta > 0"):
            build_pipeline(config)

    def test_bm25_section(self):
        config = load_run_config(None)
        config["bm25"].update({"k1": 1.2, "b": 0.5, "idf_variant": "epsilon_floor"})
        pipeline = build_pipeline(config)
        assert (pipeline.bm25.k1, pipeline.bm25.b) == (1.2, 0.5)
        assert pipeline.bm25.idf_variant == "epsilon_floor"

    def test_cosine_defaults_to_tfidf_fallback(self):
        config = load_run_config(None)
        config["similarity"] = "cosine"
        pipeline = build_pipeline(config)
        # no embedding file: ranking scores this cell by TF-IDF vectors
        assert pipeline.embedding_source is None
        assert ranking._embedding_file(pipeline) is None

    def test_invalid_values_become_config_errors(self):
        config = load_run_config(None)
        config["representation"] = "nonsense"
        with pytest.raises(ConfigError):
            build_pipeline(config)

    def test_custom_removal_patterns(self):
        config = load_run_config(None)
        config["preprocess"]["removal_patterns"] = [
            {"name": "caps", "pattern": r"[A-Z]{3,}"}
        ]
        preprocess = build_preprocess(config)
        assert [rule.name for rule in preprocess.removal_patterns] == ["caps"]

    def test_invalid_pattern_reported_at_load(self):
        config = load_run_config(None)
        config["preprocess"]["removal_patterns"] = [{"name": "bad", "pattern": "["}]
        with pytest.raises(ConfigError, match="bad"):
            build_preprocess(config)

    def test_malformed_pattern_entry(self, tmp_path):
        # the run-file walk refuses the entry, naming the file and the key
        path = tmp_path / "run.yaml"
        path.write_text("preprocess:\n  removal_patterns: [oops]\n", encoding="utf-8")
        message = (
            f"{path}: 'preprocess.removal_patterns' must be a list of mappings with string "
            "'name' and 'pattern' or null, got ['oops']"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(str(path))

    def test_fault_without_a_stopword_file_names_no_file(self):
        config = load_run_config(None)
        config["preprocess"]["core_start_markers"] = [1]
        with pytest.raises(ConfigError, match="^core_start_markers entries must be str, got 1$"):
            build_preprocess(config)

    def test_fault_beside_a_stopword_file_names_no_file(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("xpto\n", encoding="utf-8")
        config = load_run_config(None)
        config["preprocess"]["stopwords"] = str(path)
        config["preprocess"]["core_start_markers"] = [1]
        with pytest.raises(ConfigError, match="^core_start_markers entries must be str, got 1$"):
            build_preprocess(config)

    def test_stopword_file_that_is_not_utf8_named(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_bytes(b"de\n\xff\n")
        config = load_run_config(None)
        config["preprocess"]["stopwords"] = str(path)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            build_preprocess(config)

    def test_stopword_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment line\num\ndois  # trailing comment\n\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"um", "dois"})

    def test_custom_stopword_file_used(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("xpto\n", encoding="utf-8")
        config = load_run_config(None)
        config["preprocess"]["stopwords"] = str(path)
        preprocess = build_preprocess(config)
        assert preprocess.stopwords == frozenset({"xpto"})

    def test_stopword_file_entries_keep_their_case(self, tmp_path):
        # İ lowercases to two characters; the fold, not the loader, sets case
        path = tmp_path / "stop.txt"
        path.write_text("İSSO\n", encoding="utf-8")
        config = load_run_config(None)
        config["preprocess"]["stopwords"] = str(path)
        preprocess = build_preprocess(config)
        assert preprocess.stopwords == frozenset({"İSSO"})
        assert remove_noise("İSSO isso Isso isto", preprocess) == "isto"

    def test_stopword_entry_that_is_not_one_word_refused(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("de\nd'\n", encoding="utf-8")
        config = load_run_config(None)
        config["preprocess"]["stopwords"] = str(path)
        message = f"{path}: stopword \"d'\" is not one word (a run of letters and digits)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_preprocess(config)


class TestGrid:
    def test_cells_in_declared_order(self):
        grid = ExperimentGrid(
            preprocess_options=(True, False),
            representations=("lexrank",),
            summary_sizes=(5, 10),
            similarity_methods=("bm25",),
        )
        base = build_pipeline(load_run_config(None))
        descriptors = [descriptor(cell_config(base, cell)) for cell in grid.cells()]
        assert descriptors == [
            "preprocess=remove,representation=lexrank,size=5,similarity=bm25",
            "preprocess=remove,representation=lexrank,size=10,similarity=bm25",
            "preprocess=keep,representation=lexrank,size=5,similarity=bm25",
            "preprocess=keep,representation=lexrank,size=10,similarity=bm25",
        ]

    def test_fulltext_collapses_sizes(self):
        grid = ExperimentGrid(
            preprocess_options=(True,),
            representations=("fulltext",),
            summary_sizes=(5, 10, 15),
            similarity_methods=("bm25", "cosine"),
        )
        assert len(list(grid.cells())) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentGrid((), ("lexrank",), (5,), ("bm25",))

    def test_unknown_representation_rejected(self):
        base = build_pipeline(load_run_config(None))
        with pytest.raises(ValueError, match="representation must be one of"):
            cell_config(base, GridCell(True, "magic", 5, "bm25"))

    @pytest.mark.parametrize(
        "axes",
        [
            ((True, True), ("lexrank",), (5,), ("bm25",)),
            ((True,), ("lexrank", "fulltext", "lexrank"), (5,), ("bm25",)),
            ((True,), ("lexrank",), (5, 10, 5), ("bm25",)),
            ((True,), ("lexrank",), (5,), ("bm25", "bm25")),
        ],
    )
    def test_repeated_axis_value_rejected(self, axes):
        with pytest.raises(ConfigError, match="repeats"):
            ExperimentGrid(*axes)

    def test_build_grid_rejects_remove_and_true(self):
        config = load_run_config(None)
        config["grid"]["preprocess"] = ["remove", True]
        with pytest.raises(ConfigError, match="preprocess_options"):
            build_grid(config)

    def test_build_grid_accepts_remove_keep_names(self):
        config = load_run_config(None)
        config["grid"]["preprocess"] = ["keep", "remove"]
        grid = build_grid(config)
        assert grid.preprocess_options == (False, True)

    @pytest.mark.parametrize("size", [10.7, True, "15", None])
    def test_build_grid_rejects_summary_size_that_is_not_an_integer(self, size):
        config = load_run_config(None)
        config["grid"]["summary_sizes"] = [10, size]
        with pytest.raises(ConfigError, match=r"'grid\.summary_sizes' must hold integers"):
            build_grid(config)

    def test_build_grid_rejects_unknown_preprocess(self):
        config = load_run_config(None)
        config["grid"]["preprocess"] = ["maybe"]
        with pytest.raises(ConfigError, match="remove"):
            build_grid(config)

    def test_cell_config_specializes_base(self):
        base = build_pipeline(load_run_config(None))
        cell = GridCell(False, "lexrank", 7, "cosine")
        specialized = cell_config(base, cell)
        assert specialized.preprocess.remove_terms is False
        assert specialized.representation == "lexrank"
        assert specialized.summary.size == 7
        assert specialized.similarity_method == "cosine"
        assert specialized.embedding_source is None  # TF-IDF cosine
        assert specialized.summary == replace(base.summary, size=7)

    def test_cell_config_fulltext_keeps_base_size(self):
        base = build_pipeline(load_run_config(None))
        cell = GridCell(True, "fulltext", None, "bm25")
        assert cell_config(base, cell).summary.size == base.summary.size
        assert report_fields(cell_config(base, cell)) == ("remove", "fulltext", "na", "bm25")
