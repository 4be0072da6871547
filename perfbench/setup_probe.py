"""Set-up cost a user pays before the first appeal, in a fresh interpreter.

Times ``import themerank``, building the run configuration, loading the
theme catalog and the appeals file, and ``prepare_themes``; prints seconds.
A loader error is part of the set-up being timed: the measured run reports
it. Then times the host-speed reference in the same process, so that the
caller can report the set-up at reference speed.
Usage: python3 setup_probe.py CONFIG THEMES APPEALS
"""

import sys
import time

start = time.perf_counter()

import csv  # noqa: E402

import themerank  # noqa: E402,F401
from themerank import config, corpus, ranking  # noqa: E402

config_path, themes_path, appeals_path = sys.argv[1:4]
pipeline = config.build_pipeline(config.load_run_config(config_path))
catalog = corpus.load_themes(themes_path)
try:
    corpus.load_appeals(appeals_path)
except (corpus.CorpusError, csv.Error):
    pass
ranking.prepare_themes(catalog, pipeline)
seconds = time.perf_counter() - start

from hostspeed import reference_seconds  # noqa: E402

print(seconds, reference_seconds())
