"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class UqError(Exception):
    """Base class for all toolkit errors."""


# --- campaign / store ---------------------------------------------------

class ConfigError(UqError):
    """Campaign configuration document is missing fields or invalid."""


class TemplateError(UqError):
    """Template references a placeholder with no matching parameter."""


class EncodingError(UqError):
    """A placeholder could not be substituted while rendering a template."""


class DecodeError(UqError):
    """Simulation output is missing, unparsable, or inconsistent."""


class StoreCorrupt(UqError):
    """Campaign store failed its load-time checks, or a database error ended a transaction."""


class StoreMissing(UqError):
    """No campaign store where one was asked for."""


class StoreLocked(UqError):
    """Another writer holds the campaign's lock, or held the store's write
    lock past the busy timeout."""


class SamplerError(UqError):
    """Sampler specification is invalid for the declared parameter space."""


class MissingRunError(UqError):
    """Analysis requested over a stage with non-collated runs."""

    def __init__(self, message: str, run_ids: list[int] | None = None):
        super().__init__(message)
        self.run_ids = run_ids or []


# --- sampling / analysis ------------------------------------------------

class DomainError(UqError):
    """Argument outside the mathematical domain of an operation."""


class SizeError(UqError):
    """A grid or tensor product exceeds the configured size cap."""


class BasisError(UqError):
    """No orthonormal polynomial family for the requested distribution."""


class EmptyInput(UqError):
    """An operation that needs at least one sample received none."""


# --- vvp ----------------------------------------------------------------

class ScorerError(UqError):
    """A per-run scorer failed or produced unparsable output."""

    def __init__(self, message: str, run_id: int | None = None):
        super().__init__(message)
        self.run_id = run_id


# --- pilot job ----------------------------------------------------------

class ParseError(UqError):
    """Unreadable input (a batch or reference file, a protocol message), or
    no manager to exchange messages with."""


class BindError(UqError):
    """Manager could not bind its control socket."""


class ValidationError(UqError):
    """Job specification violates manager invariants."""


class JobNotFound(UqError):
    """No job with the requested name."""


class AlreadyTerminal(UqError):
    """Operation is invalid on a job that already reached a terminal state."""


class ExecutorError(UqError):
    """A run plan the execution engine cannot carry out."""
