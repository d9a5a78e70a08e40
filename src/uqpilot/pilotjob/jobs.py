"""Job table data model for the pilot manager."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from uqpilot.errors import ParseError, ValidationError

QUEUED = "QUEUED"
EXECUTING = "EXECUTING"
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"
CANCELED = "CANCELED"
OMITTED = "OMITTED"

TERMINAL = frozenset({SUCCEEDED, FAILED, CANCELED, OMITTED})
BROKEN = frozenset({FAILED, CANCELED, OMITTED})   # states that omit dependents

LOCAL_CORE_MULTIPLE = 4


def detected_cores() -> int:
    """The host's cores, or `PJ_VIRTUAL_CORES` when set."""
    env = os.environ.get("PJ_VIRTUAL_CORES")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"PJ_VIRTUAL_CORES must be a whole number of cores, got {env!r}") from None
    return os.cpu_count() or 1


def _command(value) -> tuple[str, ...]:
    return tuple(value.split() if isinstance(value, str) else map(str, value))


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str):      # iterating it would give one name per character
        raise TypeError("expected a list of job names")
    return tuple(map(str, value))


def _env(value) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in value.items()))


def _path(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a path string")
    return value


def _duration(value) -> float | None:
    return None if value is None else float(value)


def _count(value) -> int:
    if type(value) is not int:      # int() would truncate 2.7 and accept True or "2"
        raise TypeError("expected a whole number")
    return value


def _flag(value) -> bool:
    if type(value) is not bool:     # bool() would make "false" True
        raise TypeError("expected true or false")
    return value


# converter of each optional job document field; other keys are ignored
_FIELDS = {
    "command": _command,
    "cores": _count,
    "after": _names,
    "iterations": _count,
    "env": _env,
    "workdir": _path,
    "stdout": _path,
    "stderr": _path,
    "duration": _duration,
    "parallel_iterations": _flag,
}


@dataclass(frozen=True)
class JobSpec:
    name: str
    command: tuple[str, ...]
    cores: int = 1
    after: tuple[str, ...] = ()
    iterations: int = 1
    env: tuple[tuple[str, str], ...] = ()
    workdir: str | None = None
    stdout: str | None = None
    stderr: str | None = None
    duration: float | None = None           # declared seconds, simulated clock
    parallel_iterations: bool = False
    callable: str | None = None             # "module:function", called with `command` as argv

    def __post_init__(self):
        if not self.name:
            raise ValidationError("job needs a name")
        if not self.command and self.duration is None:
            raise ValidationError(f"job {self.name}: empty command")
        if self.cores < 1:
            raise ValidationError(f"job {self.name}: cores must be >= 1")
        if self.iterations < 1:
            raise ValidationError(f"job {self.name}: iterations must be >= 1")

    @classmethod
    def from_json(cls, doc) -> "JobSpec":
        """A job from its JSON object; a malformed field is a `ParseError`
        naming the job and the field."""
        if not isinstance(doc, dict) or "name" not in doc:
            raise ParseError(f"job document needs to be an object with a name: {doc!r}")
        name = str(doc["name"])
        fields = {"name": name, "command": ()}
        for key, value in doc.items():
            convert = _FIELDS.get(key)
            if convert is None:
                continue
            try:
                fields[key] = convert(value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise ParseError(f"job {name!r}: bad {key!r} {value!r}: {exc}") from None
        return cls(**fields)


@dataclass
class Task:
    """One schedulable unit: a (job, iteration) pair."""

    job: str
    iteration: int
    cores: int
    seq: int = 0                            # submission order across the manager
    status: str = QUEUED
    submit: float = 0.0
    start: float | None = None
    end: float | None = None
    exit_code: int | None = None
    cancel_requested: bool = False
    start_mode: str | None = None           # "warm", "exec" or "worker", as the launcher started it

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL


@dataclass
class Job:
    spec: JobSpec
    tasks: list[Task] = field(default_factory=list)
    succeeded: int = 0                      # tasks SUCCEEDED so far
    unmet: int = 0                          # dependencies not yet SUCCEEDED

    @property
    def status(self) -> str:
        states = {t.status for t in self.tasks}
        if states == {SUCCEEDED}:
            return SUCCEEDED
        if FAILED in states:
            return FAILED
        if CANCELED in states:
            return CANCELED
        if EXECUTING in states:
            return EXECUTING
        if states <= TERMINAL and OMITTED in states:
            return OMITTED
        return QUEUED

    @property
    def terminal(self) -> bool:
        return all(t.terminal for t in self.tasks)

    @property
    def all_succeeded(self) -> bool:
        return self.succeeded == len(self.tasks)
