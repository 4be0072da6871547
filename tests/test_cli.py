from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import re
import shlex
from pathlib import Path

import pytest
import yaml

from themerank import cli, lexrank, ranking
from themerank.cli import build_parser, main
from themerank.config import DEFAULT_CONFIG, OVERRIDE_PATHS


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_default_gives_six_rows(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        themes = tmp_path / "seven.csv"
        themes.write_text(
            "id,text\n" + "".join(f"T{i},tema numero {i} exemplo\n" for i in range(1, 8)),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--text",
            "um exemplo qualquer para classificar",
            "--themes",
            str(themes),
        )
        assert code == 0
        ranked_rows = [l for l in out.splitlines() if l.strip().startswith(tuple("123456789"))]
        assert len(ranked_rows) == 6

    @pytest.mark.parametrize("method", ["bm25", "cosine"])
    def test_text_sharing_no_term_with_the_catalog_fails(self, capsys, tmp_path, method):
        themes = tmp_path / "themes.csv"
        themes.write_text(
            "id,text\nT1,prescrição intercorrente execução fiscal\n"
            "T2,honorários advocatícios sucumbência\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "classify", "--text", "Alfa beta gama.", "--themes", str(themes),
            "--similarity", method,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "failure: inline: scores 0 against every theme",
            "error: no appeal ranked (1 failed)",
        ]

    def test_k_one_single_row(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--appeals",
            str(tiny_appeals_file),
            "--appeal-id",
            "A1",
            "--themes",
            str(tiny_themes_file),
            "--k",
            "1",
        )
        assert code == 0
        ranked_rows = [l for l in out.splitlines() if l.strip().startswith("1 ")]
        assert len(ranked_rows) == 1
        assert "T1" in ranked_rows[0]

    def test_missing_themes_file(self, capsys, tiny_appeals_file, tmp_path):
        missing = tmp_path / "missing.csv"
        code, _, err = run_cli(
            capsys,
            "classify",
            "--text",
            "qualquer",
            "--themes",
            str(missing),
        )
        assert code == 1
        assert str(missing) in err

    def test_out_writes_rankings(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        outdir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "classify",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--out",
            str(outdir),
        )
        assert code == 0
        rows = list(csv.reader(open(outdir / "rankings.csv", encoding="utf-8")))
        assert rows[0] == ["appeal_id", "rank", "theme_id", "score", "gold_theme_id", "hit_flag"]
        assert len(rows) == 1 + 3 * 3  # three appeals, catalog of three

    def test_neither_text_nor_appeals_is_error(self, capsys, tiny_themes_file):
        code, _, err = run_cli(capsys, "classify", "--themes", str(tiny_themes_file))
        assert code == 1 and "--text or --appeals" in err

    def test_input_mode_is_checked_before_the_catalog_and_out(self, capsys, tmp_path):
        outdir = tmp_path / "newdir"
        code, out, err = run_cli(
            capsys, "classify", "--themes", str(tmp_path / "missing.csv"), "--out", str(outdir)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: classify needs --text or --appeals"]
        assert not outdir.exists()

    def test_text_with_appeals_is_error(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, out, err = run_cli(
            capsys,
            "classify",
            "--text",
            "qualquer",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: classify takes --text or --appeals, not both"]

    def test_appeal_id_without_appeals_is_error(self, capsys, tiny_themes_file):
        code, out, err = run_cli(
            capsys,
            "classify",
            "--text",
            "qualquer",
            "--appeal-id",
            "NOPE",
            "--themes",
            str(tiny_themes_file),
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: classify --appeal-id needs --appeals"]

    def test_unknown_appeal_id(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, _, err = run_cli(
            capsys,
            "classify",
            "--appeals",
            str(tiny_appeals_file),
            "--appeal-id",
            "NOPE",
            "--themes",
            str(tiny_themes_file),
        )
        assert code == 1 and "NOPE" in err

    def test_failed_appeal_reported_and_the_rest_ranked(self, capsys, tiny_themes_file, tmp_path):
        appeals = tmp_path / "mixed.csv"
        appeals.write_text(
            "id,text,theme\n"
            "A1,discute-se prescrição intercorrente na execução fiscal,T1\n"
            "A2,a de 1234567 na,T2\n"  # nothing left after noise removal
            "A3,honorários advocatícios em sucumbência recursal,T2\n",
            encoding="utf-8",
        )
        outputs = []
        for parallel in ("1", "2"):
            outdir = tmp_path / f"out{parallel}"
            code, out, err = run_cli(
                capsys,
                "classify",
                "--appeals",
                str(appeals),
                "--themes",
                str(tiny_themes_file),
                "--out",
                str(outdir),
                "--parallel",
                parallel,
            )
            assert code == 0
            assert "error:" not in err
            failures = [line for line in err.splitlines() if line.startswith("failure:")]
            assert failures == ["failure: A2: text empty after preprocessing"]
            assert re.findall(r"^appeal (\S+)$", out, re.MULTILINE) == ["A1", "A3"]
            outputs.append((out, (outdir / "rankings.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        rows = list(csv.reader(outputs[0][1].decode("utf-8").splitlines()))
        assert [row[0] for row in rows[1:]] == ["A1"] * 3 + ["A3"] * 3

    def test_no_appeal_ranked_is_error(self, capsys, tiny_themes_file):
        code, out, err = run_cli(
            capsys, "classify", "--text", "a de 1234567 na", "--themes", str(tiny_themes_file)
        )
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: no appeal ranked (1 failed)"
        ]
        assert "failure: inline: text empty after preprocessing" in err


class TestEvaluate:
    def evaluate_args(self, appeals, themes, *extra):
        return ["evaluate", "--appeals", str(appeals), "--themes", str(themes), *extra]

    def test_lexical_overlap_forces_recall_one(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, out, _ = run_cli(
            capsys,
            *self.evaluate_args(
                tiny_appeals_file, tiny_themes_file, "--representation", "fulltext"
            ),
        )
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["recall_at_k"] == 1.0
        assert report["map_at_k"] == 1.0
        assert report["query_count"] == 3
        assert report["preprocess_order"] == "noise_removal_before_segmentation"

    def test_all_labels_unresolvable_is_error(self, capsys, tmp_path, tiny_themes_file):
        appeals = tmp_path / "appeals.csv"
        appeals.write_text(
            "id,text,theme\nA1,algum texto sobre execução fiscal,T404\n"
            "A2,outro texto sobre servidor público,T405\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, *self.evaluate_args(appeals, tiny_themes_file))
        assert code == 1
        assert "gold" in err or "evaluable" in err

    def test_no_appeal_ranked_names_the_failures(self, capsys, tmp_path, tiny_themes_file):
        appeals = tmp_path / "appeals.csv"
        appeals.write_text(
            "id,text,theme\nA1,a de 1234567 na,T1\nA2,o da 7654321 no,T2\n", encoding="utf-8"
        )
        code, out, err = run_cli(capsys, *self.evaluate_args(appeals, tiny_themes_file))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: no appeal ranked (2 failed; the first: A1: text empty after preprocessing)"
        ]

    def test_failed_write_leaves_no_temporary(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path, monkeypatch
    ):
        def failing_write(path, rankings, gold=None):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("appeal_id,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_rankings", failing_write)
        outdir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, *self.evaluate_args(tiny_appeals_file, tiny_themes_file, "--out", str(outdir))
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: disk full"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("command", ["classify", "evaluate", "grid"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_parallel_below_one_rejected(self, capsys, tiny_appeals_file, tiny_themes_file, command, value):
        argv = [command, "--appeals", str(tiny_appeals_file), "--themes", str(tiny_themes_file)]
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--parallel", value])
        assert exited.value.code == 2
        assert f"--parallel: expected an integer >= 1, got '{value}'" in capsys.readouterr().err

    def test_reports_byte_identical_across_runs(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        code1, stdout1, _ = run_cli(
            capsys, *self.evaluate_args(tiny_appeals_file, tiny_themes_file, "--out", str(out1))
        )
        code2, stdout2, _ = run_cli(
            capsys, *self.evaluate_args(tiny_appeals_file, tiny_themes_file, "--out", str(out2))
        )
        assert code1 == code2 == 0
        assert stdout1 == stdout2
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        assert (out1 / "rankings.csv").read_bytes() == (out2 / "rankings.csv").read_bytes()

    def test_parallel_flag_keeps_rankings_identical(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        run_cli(
            capsys,
            *self.evaluate_args(
                tiny_appeals_file, tiny_themes_file, "--out", str(out1), "--parallel", "1"
            ),
        )
        run_cli(
            capsys,
            *self.evaluate_args(
                tiny_appeals_file, tiny_themes_file, "--out", str(out2), "--parallel", "2"
            ),
        )
        assert (out1 / "rankings.csv").read_bytes() == (out2 / "rankings.csv").read_bytes()

    def test_flags_override_config_file(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("k: 2\nrepresentation: fulltext\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            *self.evaluate_args(
                tiny_appeals_file, tiny_themes_file, "--config", str(config), "--k", "1"
            ),
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1])["k"] == 1

    def test_floats_spelt_as_integers(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        rankings = []
        spellings = {"ints": (1, 0, 2, 1), "floats": (1.0, 0.0, 2.0, 1.0)}
        for name, (alpha, threshold, k1, b) in spellings.items():
            config = tmp_path / f"{name}.yaml"
            config.write_text(
                f"summary:\n  alpha: {alpha}\n  threshold: {threshold}\nbm25:\n  k1: {k1}\n  b: {b}\n",
                encoding="utf-8",
            )
            args = self.evaluate_args(
                tiny_appeals_file, tiny_themes_file, "--config", str(config), "--out", str(tmp_path / name)
            )
            code, _, err = run_cli(capsys, *args)
            assert code == 0, err
            rankings.append((tmp_path / name / "rankings.csv").read_bytes())
        assert rankings[0] == rankings[1]


class TestOverrideFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--themes", "t.csv"],
            ["evaluate", "--appeals", "a.csv", "--themes", "t.csv"],
            ["grid", "--appeals", "a.csv", "--themes", "t.csv"],
        ],
    )
    def test_every_override_is_a_flag(self, argv):
        assert set(OVERRIDE_PATHS) <= set(vars(build_parser().parse_args(argv)))


def _key_paths(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


class TestKnobInventory:
    """Every run-config key and every flag, pinned: a change that adds,
    drops or renames a knob has to say so here."""

    def test_run_config_key_paths(self):
        assert sorted(_key_paths(DEFAULT_CONFIG)) == [
            "appeal_columns.id", "appeal_columns.text", "appeal_columns.theme",
            "bm25.b", "bm25.epsilon", "bm25.idf_variant", "bm25.k1",
            "delimiter", "embeddings",
            "grid.preprocess", "grid.representations", "grid.similarity_methods",
            "grid.summary_sizes",
            "k",
            "preprocess.abbreviations", "preprocess.core_end_markers",
            "preprocess.core_start_markers", "preprocess.removal_patterns",
            "preprocess.remove_terms", "preprocess.stopwords",
            "representation", "similarity",
            "summary.alpha", "summary.beta", "summary.centrality", "summary.damping",
            "summary.max_iterations", "summary.size", "summary.threshold", "summary.tolerance",
            "theme_columns.id", "theme_columns.text",
        ]

    def test_subcommand_flags(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: sorted(flag for action in sub._actions for flag in action.option_strings)
            for name, sub in commands.choices.items()
        }
        common = [
            "--alpha", "--appeals", "--beta", "--config", "--embeddings", "--help", "--k",
            "--out", "--parallel", "--remove-terms", "--representation", "--similarity",
            "--summary-size", "--themes", "-h",
        ]
        assert flags == {
            "classify": sorted([*common, "--appeal-id", "--text"]),
            "evaluate": common,
            "grid": common,
            "stats": ["--config", "--help", "--input", "-h"],
        }


class TestReadmeCommandLine:
    """README's command-line section against the parser: a flag that goes
    cannot stay in the documentation."""

    section = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split(
        "## Command line", 1
    )[1].split("\n## ", 1)[0]

    def test_every_example_parses(self):
        block = self.section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("themerank ")]
        assert {argv[0] for argv in commands} == {"classify", "evaluate", "grid", "stats"}
        for argv in commands:
            build_parser().parse_args(argv)

    def test_every_listed_flag_exists(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        sentences = re.findall(r"Flags accepted by (.+?):(.+?)\.\s", self.section, re.DOTALL)
        assert sentences
        for names, listed in sentences:
            flags = [flag.split()[0] for flag in re.findall(r"`(--[^`]+)`", listed)]
            assert flags
            for name in re.findall(r"`(\w+)`", names):
                assert set(flags) <= set(commands.choices[name]._option_string_actions), name


# YAML spellings of nan, inf, -inf, 0, -1 and 1e308 (PyYAML reads "1e308" as a string)
_GARBAGE = (".nan", ".inf", "-.inf", "0", "-1", "1.0e+308")


def _numeric_key_paths() -> list[str]:
    """The inventory's key paths whose default is a number (not a bool)."""

    def default(path):
        node = DEFAULT_CONFIG
        for key in path.split("."):
            node = node[key]
        return node

    return sorted(path for path in _key_paths(DEFAULT_CONFIG) if type(default(path)) in (int, float))


class TestKnobContract:
    """Every numeric knob of the inventory, set to a value that may give
    garbage, either runs with finite scores or is one error line."""

    THEMES = (
        "id,text\n"
        "T1,prescrição intercorrente recurso fiscal\n"
        "T2,honorários recurso sucumbência recursal\n"
        "T3,contribuição previdenciária servidor público\n"
    )
    APPEALS = (
        "id,text,theme\n"
        "A1,O recurso discute a prescrição intercorrente. Nada mais consta dos autos. "
        "O recurso fiscal segue.,T1\n"
        "A2,Trata-se de honorários em sucumbência recursal. O recurso é conhecido.,T2\n"
        "A3,Discute-se contribuição previdenciária de servidor público. Outros pontos.,T3\n"
    )

    def test_every_numeric_path_is_covered(self):
        assert _numeric_key_paths() == [
            "bm25.b", "bm25.epsilon", "bm25.k1", "k",
            "summary.alpha", "summary.beta", "summary.damping", "summary.max_iterations",
            "summary.size", "summary.threshold", "summary.tolerance",
        ]
        assert [repr(yaml.safe_load(spelt)) for spelt in _GARBAGE] == [
            "nan", "inf", "-inf", "0", "-1", "1e+308"
        ]

    @pytest.mark.parametrize(
        "base",
        ["{}", "{summary: {centrality: continuous}, bm25: {idf_variant: epsilon_floor}}"],
        ids=["defaults", "continuous-epsilon-floor"],
    )
    @pytest.mark.parametrize("path", _numeric_key_paths())
    def test_finite_scores_or_one_error_line(self, capsys, tmp_path, base, path):
        appeals, themes = tmp_path / "appeals.csv", tmp_path / "themes.csv"
        appeals.write_text(self.APPEALS, encoding="utf-8")
        themes.write_text(self.THEMES, encoding="utf-8")
        for spelt in _GARBAGE:
            config = yaml.safe_load(base)
            *parents, leaf = path.split(".")
            node = config
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = yaml.safe_load(spelt)
            run_file = tmp_path / "run.yaml"
            run_file.write_text(yaml.safe_dump(config), encoding="utf-8")
            outdir = tmp_path / f"out{spelt}"
            code, _, err = run_cli(
                capsys, "evaluate", "--appeals", str(appeals), "--themes", str(themes),
                "--config", str(run_file), "--out", str(outdir),
            )
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if code == 0:
                with open(outdir / "rankings.csv", encoding="utf-8", newline="") as handle:
                    scores = [float(row["score"]) for row in csv.DictReader(handle)]
                assert scores and all(map(math.isfinite, scores)), (path, spelt)
                assert errors == []
            else:
                assert code == 1 and len(errors) == 1, (path, spelt, err)


class TestGrid:
    def grid_config(self, tmp_path, body: str) -> Path:
        path = tmp_path / "grid.yaml"
        path.write_text(body, encoding="utf-8")
        return path

    def test_two_sizes_two_methods_four_rows(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [lexrank]\n"
            "  summary_sizes: [1, 2]\n"
            "  similarity_methods: [bm25, cosine]\n",
        )
        outdir = tmp_path / "grid_out"
        code, out, _ = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert code == 0
        rows = list(csv.reader(open(outdir / "grid_summary.csv", encoding="utf-8")))
        assert len(rows) == 1 + 4
        descriptors = [row[0] for row in rows[1:]]
        assert len(set(descriptors)) == 4

    def test_fulltext_one_row_per_preprocess_method(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove, keep]\n"
            "  representations: [fulltext, lexrank]\n"
            "  summary_sizes: [1, 2, 3]\n"
            "  similarity_methods: [bm25]\n",
        )
        outdir = tmp_path / "grid_out"
        code, _, _ = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert code == 0
        rows = list(csv.reader(open(outdir / "grid_summary.csv", encoding="utf-8")))[1:]
        fulltext_rows = [r for r in rows if r[2] == "fulltext"]
        lexrank_rows = [r for r in rows if r[2] == "lexrank"]
        assert len(fulltext_rows) == 2  # once per (preprocess, method), sizes ignored
        assert len(lexrank_rows) == 6
        assert all(r[3] == "na" for r in fulltext_rows)

    def test_scatter_file_parses_with_metric_columns(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [lexrank]\n"
            "  summary_sizes: [2]\n"
            "  similarity_methods: [bm25]\n",
        )
        outdir = tmp_path / "grid_out"
        run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        rows = list(csv.reader(open(outdir / "scatter.csv", encoding="utf-8")))
        assert rows[0] == ["cell", "recall_at_k", "map_at_k", "ndcg_at_k"]
        assert len(rows) == 2
        for value in rows[1][1:]:
            assert 0.0 <= float(value) <= 1.0

    def test_cell_matches_standalone_evaluate(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [guided_lexrank]\n"
            "  summary_sizes: [2]\n"
            "  similarity_methods: [bm25]\n",
        )
        outdir = tmp_path / "grid_out"
        run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        metrics_files = list(outdir.glob("metrics_*.json"))
        assert len(metrics_files) == 1
        cell_report = json.loads(metrics_files[0].read_text(encoding="utf-8"))

        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--representation",
            "guided_lexrank",
            "--summary-size",
            "2",
            "--remove-terms",
            "true",
            "--similarity",
            "bm25",
        )
        standalone = json.loads(out.splitlines()[-1])
        for key in ("recall_at_k", "precision_at_k", "map_at_k", "f1", "ndcg_at_k", "query_count"):
            assert standalone[key] == cell_report[key]
        assert standalone["config"] == cell_report["cell"]

    def test_failed_cell_recorded_grid_continues(self, capsys, tmp_path, tiny_themes_file):
        # unresolvable labels make every cell unevaluable; the grid still completes
        appeals = tmp_path / "appeals.csv"
        appeals.write_text(
            "id,text,theme\nA1,algum texto valido,T404\n", encoding="utf-8"
        )
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [fulltext, lexrank]\n"
            "  summary_sizes: [1]\n"
            "  similarity_methods: [bm25]\n",
        )
        outdir = tmp_path / "grid_out"
        code, _, err = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(appeals),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert code == 0
        assert err.count("FAILED") == 2
        rows = list(csv.reader(open(outdir / "grid_summary.csv", encoding="utf-8")))
        assert len(rows) == 1 + 2  # failed cells keep their summary rows
        assert all(row[5] == "" for row in rows[1:])

    def test_cell_where_no_appeal_ranked_names_the_failures(self, capsys, tmp_path, tiny_themes_file):
        appeals = tmp_path / "appeals.csv"
        appeals.write_text("id,text,theme\nA1,a de 1234567 na,T1\n", encoding="utf-8")
        config = self.grid_config(tmp_path, "grid:\n  representations: [fulltext, lexrank]\n")
        code, _, err = run_cli(
            capsys, "grid", "--appeals", str(appeals), "--themes", str(tiny_themes_file),
            "--config", str(config),
        )
        assert code == 0
        failed = [line for line in err.splitlines() if "FAILED" in line]
        assert len(failed) == 2
        assert all(
            line.endswith(": no appeal ranked (1 failed; the first: A1: text empty after preprocessing)")
            for line in failed
        )

    def test_per_cell_rankings_files_written(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [lexrank]\n"
            "  summary_sizes: [1, 2]\n"
            "  similarity_methods: [bm25]\n",
        )
        outdir = tmp_path / "grid_out"
        run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert len(list(outdir.glob("rankings_*.csv"))) == 2
        assert len(list(outdir.glob("metrics_*.json"))) == 2
        assert not list(outdir.glob("*.tmp"))

    def test_execution_order_does_not_change_metrics(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        forward = self.grid_config(
            tmp_path,
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [lexrank, fulltext]\n"
            "  summary_sizes: [1, 2]\n"
            "  similarity_methods: [bm25]\n",
        )
        reverse = tmp_path / "reverse.yaml"
        reverse.write_text(
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [fulltext, lexrank]\n"
            "  summary_sizes: [2, 1]\n"
            "  similarity_methods: [bm25]\n",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for cfg, outdir in ((forward, out_a), (reverse, out_b)):
            run_cli(
                capsys,
                "grid",
                "--appeals",
                str(tiny_appeals_file),
                "--themes",
                str(tiny_themes_file),
                "--config",
                str(cfg),
                "--out",
                str(outdir),
            )

        def by_descriptor(outdir):
            rows = list(csv.reader(open(outdir / "grid_summary.csv", encoding="utf-8")))[1:]
            return {row[0]: row[5:10] for row in rows}

        assert by_descriptor(out_a) == by_descriptor(out_b)


    def test_summary_and_scatter_bytes(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        # the embedding file holds themes only: the bm25 cell succeeds, every
        # appeal fails under cosine, so that cell fails with empty metrics and
        # reports its 3 per-appeal failures
        embeddings = tmp_path / "themes.tsv"
        embeddings.write_text("id\t2\nT1\t1.0,0.0\nT2\t0.0,1.0\nT3\t0.5,0.5\n", encoding="utf-8")
        config = self.grid_config(
            tmp_path,
            f"embeddings: {embeddings}\n"
            "grid:\n"
            "  representations: [lexrank]\n"
            "  summary_sizes: [1]\n"
            "  similarity_methods: [bm25, cosine]\n",
        )
        outdir = tmp_path / "grid_out"
        code, out, _ = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert code == 0
        summary = (outdir / "grid_summary.csv").read_bytes()
        assert out.encode("utf-8") == summary
        assert re.sub(rb",[0-9]+\.[0-9]{3}\n", b",S\n", summary) == (
            b"cell,preprocess,representation,summary_size,similarity,recall_at_k,precision_at_k,"
            b"map_at_k,f1,ndcg_at_k,query_count,skipped,failures,seconds\n"
            b'"preprocess=remove,representation=lexrank,size=1,similarity=bm25",remove,lexrank,1,'
            b"bm25,1.0,0.16666666666666666,1.0,1.0,1.0,3,0,0,S\n"
            b'"preprocess=remove,representation=lexrank,size=1,similarity=cosine",remove,lexrank,1,'
            b"cosine,,,,,,,,3,S\n"
        )
        assert (outdir / "scatter.csv").read_bytes() == (
            b"cell,recall_at_k,map_at_k,ndcg_at_k\n"
            b'"preprocess=remove,representation=lexrank,size=1,similarity=bm25",1.0,1.0,1.0\n'
        )

    def test_repeated_axis_value_fails_before_any_cell(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = self.grid_config(tmp_path, "grid:\n  summary_sizes: [1, 1]\n")
        outdir = tmp_path / "grid_out"
        code, out, err = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
            "--out",
            str(outdir),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "summary_sizes" in err
        assert len(err.splitlines()) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "body, named",
        [
            ("grid:\n  representations: [lexrank, magic]\n", "representation must be one of"),
            ("grid:\n  representations: [{a: 1}]\n", "representation must be one of"),
            ("grid:\n  similarity_methods: [bm25, jaccard]\n", "similarity_method must be one of"),
            ("grid:\n  summary_sizes: [5, 0]\n", "'grid.summary_sizes' must hold sizes >= 1"),
            ("grid:\n  preprocess: [{a: 1}]\n", "grid preprocess values must be"),
        ],
        ids=["representation", "mapping-representation", "similarity", "size", "mapping-preprocess"],
    )
    def test_bad_cell_value_fails_before_corpus_is_read(self, capsys, tmp_path, body, named):
        config = self.grid_config(tmp_path, body)
        outdir = tmp_path / "grid_out"
        absent = str(tmp_path / "absent.csv")
        code, out, err = run_cli(
            capsys, "grid", "--appeals", absent, "--themes", absent,
            "--config", str(config), "--out", str(outdir),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err
        assert len(err.splitlines()) == 1
        assert not outdir.exists()


class TestGridFastPath:
    """The grid analyses each appeal once per preprocess option and derives
    every cell from that analysis, in one pool for all cells."""

    def grid(self, capsys, appeals, themes, tmp_path, body, *extra):
        config = tmp_path / "grid.yaml"
        config.write_text(body, encoding="utf-8")
        outdir = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        argv = ["grid", "--appeals", str(appeals), "--themes", str(themes), "--config", str(config)]
        code, out, err = run_cli(capsys, *argv, "--out", str(outdir), *extra)
        return code, err, outdir

    def count_calls(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "representations, graphs_per_appeal, guidance_per_appeal",
        [
            ("[guided_lexrank, lexrank, fulltext]", 1, 1),
            ("[lexrank, fulltext]", 1, 0),
            ("[fulltext]", 0, 0),
        ],
    )
    def test_one_analysis_per_appeal_and_preprocess_option(
        self, capsys, monkeypatch, tiny_appeals_file, tiny_themes_file, tmp_path,
        representations, graphs_per_appeal, guidance_per_appeal,
    ):
        graphs = self.count_calls(monkeypatch, lexrank, "similarity_matrix")
        guidance = self.count_calls(monkeypatch, lexrank, "guidance_scores")
        segments = self.count_calls(monkeypatch, ranking, "segment_sentences")
        noise = self.count_calls(monkeypatch, ranking, "remove_noise")
        code, _, outdir = self.grid(
            capsys, tiny_appeals_file, tiny_themes_file, tmp_path,
            "grid:\n"
            "  preprocess: [remove, keep]\n"
            f"  representations: {representations}\n"
            "  summary_sizes: [1, 2]\n"
            "  similarity_methods: [bm25, cosine]\n",
            "--parallel", "1",
        )
        assert code == 0
        analyses = 2 * 3  # preprocess options x appeals
        assert len(noise) == analyses
        assert len(graphs) == graphs_per_appeal * analyses
        assert len(segments) == graphs_per_appeal * analyses
        assert len(guidance) == guidance_per_appeal * analyses

    def test_parallel_1_and_2_write_identical_bytes(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        body = (
            "grid:\n"
            "  preprocess: [remove, keep]\n"
            "  representations: [guided_lexrank, lexrank, fulltext]\n"
            "  summary_sizes: [1, 2]\n"
            "  similarity_methods: [bm25, cosine]\n"
        )
        outputs = []
        for parallel in ("1", "2"):
            code, _, outdir = self.grid(
                capsys, tiny_appeals_file, tiny_themes_file, tmp_path, body, "--parallel", parallel
            )
            assert code == 0
            files = sorted(outdir.glob("rankings_*.csv")) + sorted(outdir.glob("metrics_*.json"))
            assert len(files) == 2 * 20  # two files for each of 20 cells
            outputs.append({f.name: f.read_bytes() for f in files + [outdir / "scatter.csv"]})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "representations, texts_tokenized_per_appeal",
        [
            ("[guided_lexrank, lexrank, fulltext]", 0),  # the summaries' sentences serve fulltext
            ("[fulltext, lexrank]", 2),  # fulltext runs first, as a plain evaluate does
            ("[fulltext]", 2),
        ],
    )
    def test_fulltext_after_a_summary_tokenizes_no_text(
        self, capsys, monkeypatch, tiny_appeals_file, tiny_themes_file, tmp_path,
        representations, texts_tokenized_per_appeal,
    ):
        tokenized = self.count_calls(monkeypatch, ranking, "tokenize")
        code, _, _ = self.grid(
            capsys, tiny_appeals_file, tiny_themes_file, tmp_path,
            "grid:\n"
            "  preprocess: [remove, keep]\n"
            f"  representations: {representations}\n"
            "  similarity_methods: [bm25, cosine]\n",
            "--parallel", "1",
        )
        assert code == 0
        # 3 themes, once for the run; then once per appeal and fulltext cell
        assert len(tokenized) == 3 + texts_tokenized_per_appeal * 2 * 3

    def test_fulltext_first_writes_the_paper_order_bytes(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        outputs = []
        for representations, parallel in [
            ("[guided_lexrank, lexrank, fulltext]", "1"),
            ("[fulltext, guided_lexrank, lexrank]", "1"),
            ("[fulltext, guided_lexrank, lexrank]", "2"),
        ]:
            code, _, outdir = self.grid(
                capsys, tiny_appeals_file, tiny_themes_file, tmp_path,
                "grid:\n"
                "  preprocess: [remove, keep]\n"
                f"  representations: {representations}\n"
                "  summary_sizes: [1, 2]\n"
                "  similarity_methods: [bm25, cosine]\n",
                "--parallel", parallel,
            )
            assert code == 0
            files = sorted(outdir.glob("rankings_*.csv")) + sorted(outdir.glob("metrics_*.json"))
            assert len(files) == 2 * 20
            outputs.append({f.name: f.read_bytes() for f in files})
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched classify_appeal reaches the workers only through fork",
    )
    def test_dead_worker_is_one_error_line(
        self, capsys, monkeypatch, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        classify = ranking.classify_appeal

        def dies_on_a2(appeal, *args, **kwargs):
            if appeal.id == "A2":
                os._exit(1)
            return classify(appeal, *args, **kwargs)

        monkeypatch.setattr(ranking, "classify_appeal", dies_on_a2)
        code, err, outdir = self.grid(
            capsys, tiny_appeals_file, tiny_themes_file, tmp_path,
            "grid:\n  representations: [lexrank]\n  summary_sizes: [1]\n",
            "--parallel", "2",
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
        assert not (outdir / "grid_summary.csv").exists()

    def test_axis_not_a_list_is_one_error_line(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        code, err, outdir = self.grid(
            capsys, tiny_appeals_file, tiny_themes_file, tmp_path, "grid:\n  preprocess: remove\n"
        )
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'preprocess' must be a list" in err
        assert not outdir.exists()


class TestGridWithoutOut:
    def test_summary_printed_no_files(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        config = tmp_path / "grid.yaml"
        config.write_text(
            "grid:\n"
            "  preprocess: [remove]\n"
            "  representations: [lexrank]\n"
            "  summary_sizes: [1]\n"
            "  similarity_methods: [bm25]\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "grid",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
        )
        assert code == 0
        assert out.startswith("cell,")
        assert len(out.strip().splitlines()) == 2


class TestBadConfig:
    def test_unparseable_yaml_is_error(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        config = tmp_path / "broken.yaml"
        config.write_text("k: [unclosed\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--appeals",
            str(tiny_appeals_file),
            "--themes",
            str(tiny_themes_file),
            "--config",
            str(config),
        )
        assert code == 1 and "parse" in err

    def test_key_written_twice_fails_before_any_corpus_is_read(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"k": 3, "k": 5}', encoding="utf-8")
        missing = str(tmp_path / "missing.csv")
        code, out, err = run_cli(
            capsys, "evaluate", "--appeals", missing, "--themes", missing, "--config", str(config)
        )
        assert (code, out) == (1, "")
        assert err == f"error: {config}: key 'k' written twice, again on line 1\n"


def _semicolon_copy(source: Path, target: Path, names: dict) -> None:
    """Rewrite a comma corpus file split by ';', its columns reversed and renamed."""
    with open(source, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    order = list(names)[::-1]
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=";")
        writer.writerow([names[column] for column in order])
        writer.writerows([row[column] for column in order] for row in rows)


class TestRunFileColumns:
    @pytest.mark.parametrize("command", ["evaluate", "grid"])
    def test_delimiter_and_columns_from_the_run_file(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path, command
    ):
        appeals, themes = tmp_path / "recursos.csv", tmp_path / "temas.csv"
        _semicolon_copy(tiny_appeals_file, appeals, {"id": "num", "text": "corpo", "theme": "tema"})
        _semicolon_copy(tiny_themes_file, themes, {"id": "codigo", "text": "descricao"})
        grid = "grid:\n  representations: [lexrank, fulltext]\n  summary_sizes: [1]\n"
        runs = {
            "default": (tiny_appeals_file, tiny_themes_file, grid),
            "renamed": (
                appeals,
                themes,
                grid + "delimiter: ';'\n"
                "appeal_columns: {id: num, text: corpo, theme: tema}\n"
                "theme_columns: {id: codigo, text: descricao}\n",
            ),
        }
        written = {}
        for name, (appeals_path, themes_path, body) in runs.items():
            config, outdir = tmp_path / f"{name}.yaml", tmp_path / name
            config.write_text(body, encoding="utf-8")
            code, _, _ = run_cli(
                capsys, command, "--appeals", str(appeals_path), "--themes", str(themes_path),
                "--config", str(config), "--out", str(outdir),
            )
            assert code == 0
            files = sorted(outdir.glob("rankings*.csv")) + sorted(outdir.glob("metrics*.json"))
            written[name] = {path.name: path.read_bytes() for path in files}
        assert len(written["default"]) == (2 if command == "evaluate" else 4)
        assert written["renamed"] == written["default"]


class TestOneLineErrors:
    def run(self, capsys, appeals, themes, *extra):
        code, _, err = run_cli(
            capsys, "evaluate", "--appeals", str(appeals), "--themes", str(themes), *extra
        )
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("command", ["classify", "evaluate", "grid"])
    def test_header_only_appeals_file(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path, monkeypatch, command
    ):
        # and a header-only theme file: grid names its cells only once both loaded
        appeals = tmp_path / "appeals_header.csv"
        appeals.write_text("id,text,theme\n", encoding="utf-8")
        themes = tmp_path / "themes_header.csv"
        themes.write_text("id,text\n", encoding="utf-8")
        for name in ("classify_corpus", "classify_grid"):
            monkeypatch.setattr(cli, name, lambda *_, **__: pytest.fail("classified"))
        for appeals_file, themes_file, empty in (
            (appeals, tiny_themes_file, appeals),
            (tiny_appeals_file, themes, themes),
        ):
            code, out, err = run_cli(
                capsys, command, "--appeals", str(appeals_file), "--themes", str(themes_file)
            )
            assert (code, out) == (1, "")
            assert err == f"error: {empty}: no rows after the header\n"

    def test_config_is_a_directory(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(tmp_path))
        assert str(tmp_path) in err

    def test_out_is_an_existing_file(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--out", str(taken))
        assert str(taken) in err

    def test_section_not_a_mapping(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("summary: 5\n", encoding="utf-8")
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(config))
        assert "'summary' must be a mapping, got 5" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("preprocess:\n  core_start_markers: RELATÓRIO\n", "'preprocess.core_start_markers' must be a list"),
            ("preprocess:\n  abbreviations: art\n", "'preprocess.abbreviations' must be a list"),
            ("summary:\n  mode: plain\n", "unknown key 'summary.mode'"),
            ("k: [1]\n", "'k' must be an integer, got [1]"),
            (
                "preprocess:\n  removal_patterns: [{name: x, pattern: 5}]\n",
                "'preprocess.removal_patterns' must be a list of mappings with string 'name' and 'pattern'",
            ),
        ],
    )
    def test_misshapen_config_value(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path, body, message
    ):
        config = tmp_path / "run.yaml"
        config.write_text(body, encoding="utf-8")
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(config))
        assert message in err

    def test_bad_removal_entry_named_before_a_later_fault(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = tmp_path / "run.yaml"
        config.write_text("preprocess:\n  removal_patterns: [{name: x, pattern: 5}]\nk: 6.5\n", encoding="utf-8")
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(config))
        assert err.startswith(f"error: {config}: 'preprocess.removal_patterns' must be a list of mappings")

    @pytest.mark.parametrize("delimiter", ["", ",,"])
    def test_bad_delimiter_in_run_file(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path, delimiter
    ):
        config = tmp_path / "run.yaml"
        config.write_text(f"delimiter: '{delimiter}'\n", encoding="utf-8")
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(config))
        assert f"delimiter must be one character, got {delimiter!r}" in err

    def test_grid_summary_size_not_an_integer(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config = tmp_path / "grid.yaml"
        config.write_text("grid:\n  summary_sizes: [10.7, true]\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "grid", "--appeals", str(tiny_appeals_file), "--themes", str(tiny_themes_file),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'grid.summary_sizes' must hold integers, got 10.7" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_embedding(self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path):
        embeddings = tmp_path / "e.tsv"
        embeddings.write_text(
            "id\t2\nA1\t1,0\nA2\tnan,1\nA3\t0,1\nT1\t1,0\nT2\t0,1\nT3\t1,1\n",
            encoding="utf-8",
        )
        err = self.run(
            capsys, tiny_appeals_file, tiny_themes_file,
            "--similarity", "cosine", "--embeddings", str(embeddings),
        )
        assert f"{embeddings}: line 3: non-finite component" in err

    @staticmethod
    def stopwords_config(tmp_path, entries):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("".join(f"{entry}\n" for entry in entries), encoding="utf-8")
        config = tmp_path / "run.yaml"
        config.write_text(f"preprocess:\n  stopwords: {stopwords}\n", encoding="utf-8")
        return config, stopwords

    def test_stopword_set_of_a_thousand_nested_prefixes_classifies(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        # entries are looked up as words, so how they nest sets no limit
        config, _ = self.stopwords_config(tmp_path, ["a" * i for i in range(1, 1001)])
        code, _, err = run_cli(
            capsys, "evaluate", "--appeals", str(tiny_appeals_file),
            "--themes", str(tiny_themes_file), "--config", str(config),
        )
        assert code == 0, err

    def test_stopword_entry_that_is_not_one_word(
        self, capsys, tiny_appeals_file, tiny_themes_file, tmp_path
    ):
        config, stopwords = self.stopwords_config(tmp_path, ["de", "d'", "c/"])
        err = self.run(capsys, tiny_appeals_file, tiny_themes_file, "--config", str(config))
        assert f"{stopwords}: stopword 'c/' is not one word" in err


class TestSummaryMode:
    def evaluate(self, capsys, appeals, themes, representation):
        return run_cli(
            capsys,
            "evaluate",
            "--appeals",
            str(appeals),
            "--themes",
            str(themes),
            "--representation",
            representation,
            "--alpha",
            "0",
            "--beta",
            "0",
        )

    def test_lexrank_ignores_zero_weights(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, out, _ = self.evaluate(capsys, tiny_appeals_file, tiny_themes_file, "lexrank")
        assert code == 0
        assert json.loads(out)["query_count"] == 3

    def test_guided_rejects_zero_weights(self, capsys, tiny_appeals_file, tiny_themes_file):
        code, _, err = self.evaluate(capsys, tiny_appeals_file, tiny_themes_file, "guided_lexrank")
        assert code == 1 and "alpha + beta > 0" in err


class TestStats:
    def test_custom_columns_and_delimiter(self, capsys, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("codigo\tcorpo\nD1\tum dois três\n", encoding="utf-8")
        config = tmp_path / "run.yaml"
        config.write_text(
            "delimiter: \"\\t\"\nappeal_columns: {id: codigo, text: corpo}\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "stats", "--config", str(config), "--input", str(path))
        assert code == 0
        assert json.loads(out)["max_words"] == 3

    def test_bad_delimiter_flag(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,text\nD1,um dois\n", encoding="utf-8")
        config = tmp_path / "run.yaml"
        config.write_text("delimiter: ''\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", "--config", str(config), "--input", str(path))
        assert code == 1
        assert err == "error: delimiter must be one character, got ''\n"

    def test_single_document(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,text\nD1,um dois três quatro cinco\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "stats", "--input", str(path))
        assert code == 0
        stats = json.loads(out)
        assert stats == {
            "doc_count": 1,
            "mean_words": 5.0,
            "median_words": 5.0,
            "min_words": 5,
            "max_words": 5,
        }

    def test_theme_catalog_median(self, capsys, tmp_path):
        path = tmp_path / "themes.csv"
        path.write_text("id,text\nT1,a b\nT2,a b c d\nT3,a b c d e f\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "stats", "--input", str(path))
        stats = json.loads(out)
        assert stats["doc_count"] == 3 and stats["median_words"] == 4.0

    def test_empty_file_is_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", "--input", str(path))
        assert code == 1 and "header" in err

    def test_header_only_is_error(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,text\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "stats", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: no rows after the header\n"
