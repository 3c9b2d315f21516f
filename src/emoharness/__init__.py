"""Batch experiment harness for multilingual text-based emotion recognition.

Pipeline surface: dataset loading and per-emotion instance explosion,
BM25 example retrieval, prompt rendering, chat-completion inference with
deterministic mocks, label aggregation and marginalisation, macro F1 and
mean Pearson r scoring, instruction-dataset export, and an experiment
runner with all-or-nothing output directories.
"""

from .corpus import (
    EMOTIONS,
    TRACK_A,
    TRACK_B,
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
    BUILTIN_MOCKS,
    AlwaysZeroMock,
    EchoFirstDigitMock,
    GoldLookupMock,
    KeywordMock,
    build_mock,
)
from .prompting import TEMPLATES, TRACK_A_TEMPLATE, TRACK_B_TEMPLATE, frame, render_few_shot, render_zero_shot
from .retrieval import Bm25Index, Bm25Params, RetrievalConfig, build_index, score, tokenize, top_k
from .runner import (
    STRATEGIES,
    DatasetPaths,
    ExperimentConfig,
    RunManifest,
    load_config,
    run,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "EMOTIONS",
    "TRACK_A",
    "TRACK_B",
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
    "BUILTIN_MOCKS",
    "AlwaysZeroMock",
    "EchoFirstDigitMock",
    "GoldLookupMock",
    "KeywordMock",
    "build_mock",
    "TEMPLATES",
    "TRACK_A_TEMPLATE",
    "TRACK_B_TEMPLATE",
    "frame",
    "render_few_shot",
    "render_zero_shot",
    "Bm25Index",
    "Bm25Params",
    "RetrievalConfig",
    "build_index",
    "score",
    "tokenize",
    "top_k",
    "STRATEGIES",
    "DatasetPaths",
    "ExperimentConfig",
    "RunManifest",
    "load_config",
    "run",
    "validate_config",
    "__version__",
]
