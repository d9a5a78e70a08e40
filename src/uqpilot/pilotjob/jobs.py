"""Job table data model for the pilot manager."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

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
    env = os.environ.get("PJ_VIRTUAL_CORES")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Allocation:
    nodes: tuple[tuple[str, int], ...]      # (name, cores)
    mode: str = "local"                     # local | virtual

    def __post_init__(self):
        if self.mode not in ("local", "virtual"):
            raise ValidationError(f"allocation mode must be local or virtual, got {self.mode!r}")
        if not self.nodes or any(c < 1 for _, c in self.nodes):
            raise ValidationError("allocation needs at least one node with >= 1 core")
        if self.mode == "local":
            cap = LOCAL_CORE_MULTIPLE * detected_cores()
            if self.total_cores > cap:
                raise ValidationError(
                    f"local allocation of {self.total_cores} cores exceeds "
                    f"{LOCAL_CORE_MULTIPLE}x the {detected_cores()} detected cores"
                )

    @cached_property
    def total_cores(self) -> int:
        return sum(c for _, c in self.nodes)

    @classmethod
    def local(cls, cores: int | None = None) -> "Allocation":
        return cls((("local", cores or detected_cores()),), mode="local")

    @classmethod
    def virtual(cls, cores: int, nodes: int = 1) -> "Allocation":
        per, extra = divmod(cores, nodes)
        spec = tuple(
            (f"vnode{i}", per + (1 if i < extra else 0)) for i in range(nodes)
        )
        return cls(spec, mode="virtual")

    @classmethod
    def from_json(cls, doc: dict) -> "Allocation":
        if "nodes" not in doc:
            raise ParseError("allocation document needs a 'nodes' list")
        nodes = tuple(
            (str(n["name"]), int(n["cores"])) for n in doc["nodes"]
        )
        return cls(nodes, mode=str(doc.get("mode", "local")))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "nodes": [{"name": n, "cores": c} for n, c in self.nodes],
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
    def from_json(cls, doc: dict) -> "JobSpec":
        if "name" not in doc:
            raise ParseError(f"job document needs a name: {doc!r}")
        command = doc.get("command", [])
        if isinstance(command, str):
            command = command.split()
        env = doc.get("env", {})
        return cls(
            name=str(doc["name"]),
            command=tuple(str(c) for c in command),
            cores=int(doc.get("cores", 1)),
            after=tuple(str(a) for a in doc.get("after", [])),
            iterations=int(doc.get("iterations", 1)),
            env=tuple(sorted((str(k), str(v)) for k, v in env.items())),
            workdir=doc.get("workdir"),
            stdout=doc.get("stdout"),
            stderr=doc.get("stderr"),
            duration=None if doc.get("duration") is None else float(doc["duration"]),
            parallel_iterations=bool(doc.get("parallel_iterations", False)),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "command": list(self.command),
            "cores": self.cores,
            "after": list(self.after),
            "iterations": self.iterations,
            "env": dict(self.env),
            "workdir": self.workdir,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "duration": self.duration,
            "parallel_iterations": self.parallel_iterations,
        }


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
    assigned: tuple[tuple[str, int], ...] = ()
    exit_code: int | None = None
    cancel_requested: bool = False

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
