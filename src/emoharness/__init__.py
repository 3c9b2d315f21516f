"""Batch experiment harness for multilingual text-based emotion recognition.

Pipeline surface: dataset loading and per-emotion instance explosion,
BM25 example retrieval, prompt rendering, chat-completion inference with
deterministic mocks, label aggregation and marginalisation, macro F1 and
mean Pearson r scoring, instruction-dataset export, and an experiment
runner with all-or-nothing output directories.

Each public name resolves on first access (PEP 562): importing it from the
package root imports only the module that defines it, so ``corpus``,
``prompting`` or ``exports`` load without numpy or pyyaml.
"""

import importlib

#: Each module's public names, in ``__all__`` order.
_EXPORTS = {
    "corpus": (
        "EMOTIONS", "ColumnSchema", "EmotionSet", "Snippet", "TaskInstance",
        "display_name", "explode", "load_dataset", "oversample",
    ),
    "errors": (
        "AlignmentError", "CompletenessError", "ConfigError", "HarnessError", "ProtocolError",
        "RunStageError", "SchemaError", "TransportError", "ValidationError",
    ),
    "evaluation": (
        "LabelVector", "MetricsReport", "aggregate", "count_parse_failures",
        "macro_f1", "marginalise", "mean_pearson_r",
    ),
    "exports": ("HYPERPARAMETERS", "LEARNING_RATES", "export_ebridge_plan", "export_sft_dataset"),
    "inference": (
        "CompletionClient", "CompletionRequest", "EndpointConfig", "PredictionRecord", "RawCompletion",
        "parse_label",
    ),
    "mocks": ("AlwaysZeroMock", "GoldLookupMock", "KeywordMock", "build_mock"),
    "prompting": ("frame", "render_few_shot", "render_zero_shot"),
    "retrieval": ("Bm25Params", "RetrievalConfig", "build_index", "tokenize", "top_k"),
    "runner": ("STRATEGIES", "DatasetPaths", "load_config", "run", "validate_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    # Any other name raises, so ``from emoharness import prompting`` falls back to the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
