"""themerank: unsupervised theme suggestion for long appeal documents.

Pipeline: noise removal, sentence-graph summarization (optionally guided by
the theme catalog), then BM25 or cosine scoring of the representation
against every theme, producing a ranked top-k suggestion list. A CLI and an
evaluation harness with standard top-k retrieval metrics are included.
"""

from .corpus import gold_labels, load_appeals, load_themes
from .metrics import evaluate_run
from .ranking import PipelineConfig, classify_appeal, classify_corpus, classify_grid

__version__ = "0.1.0"
