"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class MissingColumn(PipelineError):
    """A configured column is absent from the CSV header."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found in header")
        self.name = name


class UnparseableHeader(PipelineError):
    """The CSV header row is missing, empty, or ambiguous."""


class UnreadableCsv(PipelineError):
    """The CSV is not valid UTF-8, or has a field longer than
    :func:`csv.field_size_limit`."""


class EmptyAfterFiltering(PipelineError):
    """Every data row was dropped during ingestion."""


class DegenerateInput(PipelineError):
    """Input has too little variation to support the requested partition."""


class LengthMismatch(PipelineError):
    """Sequences that must be aligned have different lengths."""


class SequenceTooShort(PipelineError):
    """Sequence is shorter than the embedding/lag structure requires."""


class TreeDatasetMismatch(PipelineError):
    """A stored tree was built from different input bytes than supplied."""


class MalformedArtifact(PipelineError):
    """A stored tree or manifest is not valid JSON, lacks a required entry,
    or describes an impossible tree."""
