"""Exception types shared across the harness."""


class HarnessError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(HarnessError):
    """A dataset file does not provide the columns the schema requires."""


class ValidationError(HarnessError):
    """Input data violates a contract (label range, duplicate id, ...)."""


class CompletenessError(ValidationError):
    """A prediction set is missing (snippet, emotion) pairs."""


class AlignmentError(HarnessError):
    """Gold and predicted vectors do not cover the same snippet ids."""


class ConfigError(HarnessError):
    """An experiment config is malformed or violates a cross-field invariant."""


class TransportError(HarnessError):
    """An endpoint request failed: at once on a status not worth retrying,
    else once its retries ran out. ``status`` is the HTTP status, or None."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ProtocolError(TransportError):
    """The endpoint answered with a body that is not a chat completion;
    ``status`` is None."""


class RunStageError(HarnessError):
    """Wraps an error raised inside a pipeline stage with stage context."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[stage={stage}] {cause}")
        self.stage = stage
