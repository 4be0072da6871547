"""End-to-end run over realistic Portuguese legal text: noisy appeals with
docket numbers, registry numbers, amounts, addresses and legal abbreviations,
classified against a small catalog through the default guided pipeline.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from types import ModuleType

import themerank
from themerank.cli import main
from themerank.corpus import AppealRecord, gold_labels, load_appeals, load_themes, write_appeals
from themerank.metrics import evaluate_run
from themerank.ranking import PipelineConfig, classify_corpus

THEMES = [
    (
        "T100",
        "Discute-se o sistema de contagem da prescrição intercorrente previsto no "
        "art. 40 da Lei de Execução Fiscal (Lei nº 6.830/80) e os obstáculos ao "
        "curso do prazo prescricional.",
    ),
    (
        "T200",
        "Cabimento de honorários advocatícios de sucumbência recursal quando o "
        "recurso é integralmente desprovido pelo tribunal.",
    ),
    (
        "T300",
        "Incidência de contribuição previdenciária sobre o terço constitucional "
        "de férias pago a servidor público.",
    ),
    (
        "T400",
        "Responsabilidade civil do transportador aéreo por extravio de bagagem e "
        "fixação de indenização por dano moral.",
    ),
]


def appeal_text_prescricao() -> str:
    return (
        "Trata-se de recurso interposto nos autos do Processo 0001234-56.2020.4.02.5101, "
        "em trâmite perante a 2ª Vara Federal. "
        "O recorrente, inscrito no CPF 123.456.789-01, residente na Rua das Laranjeiras, 100, "
        "insurge-se contra o acórdão recorrido. "
        "Conforme o art. 40 da Lei nº 6.830/80, a execução fiscal será suspensa enquanto não "
        "localizado o devedor. "
        "Sustenta que a prescrição intercorrente consumou-se no curso da execução fiscal, "
        "pois o feito permaneceu paralisado por mais de cinco anos. "
        "A contagem da prescrição intercorrente deve observar os obstáculos ao curso do prazo "
        "prescricional reconhecidos pela jurisprudência. "
        "O valor atualizado da dívida é de R$ 153.842,19, conforme planilha de fls. 230. "
        "Requer o provimento do recurso para que seja reconhecida a prescrição intercorrente."
    )


def appeal_text_honorarios() -> str:
    return (
        "Cuida-se de apelação distribuída sob o número 7654321-09.2019.8.19.0001. "
        "O apelante alega que o juízo de origem deixou de majorar os honorários advocatícios "
        "de sucumbência recursal, na forma do art. 85 do CPC. "
        "O recurso foi integralmente desprovido pelo tribunal de origem. "
        "Defende o cabimento de honorários advocatícios de sucumbência recursal quando o "
        "recurso é desprovido. "
        "Aponta precedentes específicos sobre sucumbência recursal em recursos desprovidos. "
        "Pede a reforma do julgado com a majoração da verba honorária."
    )


def write_fixture(tmp_path):
    themes_path = tmp_path / "themes.csv"
    appeals_path = tmp_path / "appeals.csv"
    import csv

    with open(themes_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "text"])
        writer.writerows(THEMES)
    with open(appeals_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "text", "theme"])
        writer.writerow(["A1", appeal_text_prescricao(), "T100"])
        writer.writerow(["A2", appeal_text_honorarios(), "T200"])
    return appeals_path, themes_path


def test_guided_pipeline_on_noisy_legal_text(tmp_path):
    appeals_path, themes_path = write_fixture(tmp_path)
    appeals = load_appeals(appeals_path)
    catalog = load_themes(themes_path)

    config = PipelineConfig()  # remove terms, guided summary size 15, bm25, k 6
    results, failures = classify_corpus(appeals, catalog, config)
    assert not failures
    by_id = {r.appeal_id: r for r in results}
    assert by_id["A1"].entries[0][0] == "T100"
    assert by_id["A2"].entries[0][0] == "T200"

    report = evaluate_run(results, gold_labels(appeals, catalog), k=6)
    assert report.recall_at_k == 1.0
    assert report.map_at_k == 1.0


def test_small_guided_summary_still_finds_theme(tmp_path):
    from dataclasses import replace
    from themerank.lexrank import SummaryConfig

    appeals_path, themes_path = write_fixture(tmp_path)
    appeals = load_appeals(appeals_path)
    catalog = load_themes(themes_path)

    config = replace(PipelineConfig(), summary=SummaryConfig(size=2))
    results, failures = classify_corpus(appeals, catalog, config)
    assert not failures
    by_id = {r.appeal_id: r for r in results}
    assert by_id["A1"].entries[0][0] == "T100"


def test_cli_evaluate_on_noisy_fixture(tmp_path, capsys):
    appeals_path, themes_path = write_fixture(tmp_path)
    code = main(
        [
            "evaluate",
            "--appeals",
            str(appeals_path),
            "--themes",
            str(themes_path),
            "--summary-size",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["recall_at_k"] == 1.0
    assert report["config"] == (
        "preprocess=remove,representation=guided_lexrank,size=5,similarity=bm25"
    )


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    appeals_path, _ = write_fixture(tmp_path)
    # one appeal: the example's parallel=8 then runs in this process, with no pool
    write_appeals(appeals_path, [AppealRecord("A1", appeal_text_prescricao(), "T100")])
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].query_count == 1 and not namespace["failures"]

    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "themerank"
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(themerank).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert imported == exported and len(exported) == 8
