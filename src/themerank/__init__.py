"""themerank: unsupervised theme suggestion for long appeal documents.

Pipeline: noise removal, sentence-graph summarization (optionally guided by
the theme catalog), then BM25 or cosine scoring of the representation
against every theme, producing a ranked top-k suggestion list. A CLI and an
evaluation harness with standard top-k retrieval metrics are included.
"""

from .bm25 import Bm25Index, Bm25Params, build_index, score
from .corpus import (
    AppealRecord,
    CorpusError,
    StatsReport,
    ThemeCatalog,
    ThemeRecord,
    corpus_stats,
    gold_labels,
    load_appeals,
    load_themes,
    unresolvable_labels,
    write_appeals,
    write_themes,
)
from .lexrank import (
    SentenceGraph,
    Summary,
    SummaryConfig,
    combined_scores,
    continuous_centrality,
    degree_centrality,
    guidance_scores,
    similarity_matrix,
    summarize,
)
from .metrics import (
    Judgment,
    MetricReport,
    average_precision,
    evaluate_run,
    f1,
    map_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from .ranking import (
    CorpusOutcome,
    PipelineConfig,
    PipelineError,
    RankedThemeList,
    classify_appeal,
    classify_corpus,
    classify_grid,
    write_rankings,
)
from .similarity import EmbeddingTable, cosine, load_embeddings, score_by_bm25, tfidf_vectors
from .textproc import (
    PreprocessConfig,
    Sentence,
    extract_core,
    remove_noise,
    segment_sentences,
    tokenize,
)

__version__ = "0.1.0"
