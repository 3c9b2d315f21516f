"""Batch experiment harness for multilingual text-based emotion recognition.

Pipeline surface: dataset loading and per-emotion instance explosion,
BM25 example retrieval, prompt rendering, chat-completion inference with
deterministic mocks, label aggregation and marginalisation, macro F1 and
mean Pearson r scoring, instruction-dataset export, and an experiment
runner with all-or-nothing output directories.
"""

from .corpus import (
    EMOTIONS,
    ColumnSchema,
    EmotionSet,
    Snippet,
    TaskInstance,
    display_name,
    explode,
    load_dataset,
    oversample,
)
from .errors import (
    AlignmentError,
    CompletenessError,
    ConfigError,
    HarnessError,
    ProtocolError,
    RunStageError,
    SchemaError,
    TransportError,
    ValidationError,
)
from .evaluation import (
    LabelVector,
    MetricsReport,
    aggregate,
    count_parse_failures,
    macro_f1,
    marginalise,
    mean_pearson_r,
)
from .exports import (
    HYPERPARAMETERS,
    LEARNING_RATES,
    export_ebridge_plan,
    export_sft_dataset,
)
from .inference import (
    CompletionClient,
    CompletionRequest,
    EndpointConfig,
    PredictionRecord,
    RawCompletion,
    parse_label,
)
from .mocks import (
    AlwaysZeroMock,
    GoldLookupMock,
    KeywordMock,
    build_mock,
)
from .prompting import frame, render_few_shot, render_zero_shot
from .retrieval import Bm25Params, RetrievalConfig, build_index, score, tokenize, top_k
from .runner import (
    STRATEGIES,
    DatasetPaths,
    load_config,
    run,
    validate_config,
)

__all__ = [
    "EMOTIONS",
    "ColumnSchema",
    "EmotionSet",
    "Snippet",
    "TaskInstance",
    "display_name",
    "explode",
    "load_dataset",
    "oversample",
    "AlignmentError",
    "CompletenessError",
    "ConfigError",
    "HarnessError",
    "ProtocolError",
    "RunStageError",
    "SchemaError",
    "TransportError",
    "ValidationError",
    "LabelVector",
    "MetricsReport",
    "aggregate",
    "count_parse_failures",
    "macro_f1",
    "marginalise",
    "mean_pearson_r",
    "HYPERPARAMETERS",
    "LEARNING_RATES",
    "export_ebridge_plan",
    "export_sft_dataset",
    "CompletionClient",
    "CompletionRequest",
    "EndpointConfig",
    "PredictionRecord",
    "RawCompletion",
    "parse_label",
    "AlwaysZeroMock",
    "GoldLookupMock",
    "KeywordMock",
    "build_mock",
    "frame",
    "render_few_shot",
    "render_zero_shot",
    "Bm25Params",
    "RetrievalConfig",
    "build_index",
    "score",
    "tokenize",
    "top_k",
    "STRATEGIES",
    "DatasetPaths",
    "load_config",
    "run",
    "validate_config",
]
