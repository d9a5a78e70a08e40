"""Campaign configuration: parameter space, application description.

One JSON document describes a campaign:

    {
      "schema_version": 1,
      "name": "...",
      "app": {
        "template": "input.template",
        "delimiter": "$",
        "target": "input.json",            # optional, defaults to template basename
        "command": ["uq-toy", "input.json"],  # optional with "callable"
        "callable": "uqpilot.toy:main",       # optional
        "decoder": {
          "output_relpath": "deaths.csv",
          "format": "csv",                 # csv | json-lines
          "qoi_columns": ["dead"],
          "index_column": "t"              # optional
        }
      },
      "parameters": [
        {"name": "...", "kind": "real", "default": 0.07,
         "distribution": {"type": "uniform", "args": [0.0035, 0.14]}},
        ...
      ]
    }

Each run executes the app once in the run's directory, with stdout and
stderr in `run.stdout` and `run.stderr` there. The app is one of two:

- `callable`, `"module:function"`: `function([target])` is called on a
  persistent worker process that imported `module` once, with the
  function's int return value (else 0), a `SystemExit`'s code, or 1 for
  any other exception as the run's exit code. Module state outlives a run
  (see `uqpilot.pilotjob.launcher`). `uq` itself never imports `module`.
- `command`, run with stdin from /dev/null. A command `[python, "-m",
  module, *args]` naming the interpreter running `uq` may start warm,
  forked from one started interpreter, under the rule that
  `uqpilot.pilotjob.launcher` states; any other is executed.

A config may give both; runs then use `callable`, and `command` is the same
app by hand (`uq-toy input.json` in a run's directory reruns that run).
`command` may be left out when `callable` is given.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from uqpilot.errors import ConfigError, TemplateError
from uqpilot.sampling.distributions import Distribution1D

SCHEMA_VERSION = 1

NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_DOTTED = r"[^\W\d]\w*(\.[^\W\d]\w*)*"   # dotted Python identifiers
CALLABLE_RE = re.compile(f"^{_DOTTED}:{_DOTTED}$")


@dataclass(frozen=True)
class ParameterDef:
    name: str
    kind: str               # real | integer
    default: float
    distribution: Distribution1D

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ConfigError(
                f"parameter name {self.name!r} does not match the placeholder grammar"
            )
        if self.kind not in ("real", "integer"):
            raise ConfigError(f"parameter {self.name}: kind must be real or integer")
        if self.kind == "integer" and float(self.default) != int(self.default):
            raise ConfigError(f"parameter {self.name}: integer default is not integral")
        if not self.distribution.contains(self.default):
            raise ConfigError(
                f"parameter {self.name}: default {self.default} outside the "
                f"support of {self.distribution.variant}{self.distribution.args}"
            )

    def coerce(self, value: float):
        return int(round(value)) if self.kind == "integer" else value

    @classmethod
    def from_json(cls, doc: dict) -> "ParameterDef":
        for key in ("name", "kind", "default", "distribution"):
            if key not in doc:
                raise ConfigError(f"parameter entry missing {key!r}: {doc!r}")
        return cls(
            name=str(doc["name"]),
            kind=str(doc["kind"]),
            default=float(doc["default"]),
            distribution=Distribution1D.from_json(doc["distribution"]),
        )


@dataclass(frozen=True)
class DecoderSpec:
    output_relpath: str
    format: str                       # csv | json-lines
    qoi_columns: tuple[str, ...]
    index_column: str | None = None

    def __post_init__(self):
        if self.format not in ("csv", "json-lines"):
            raise ConfigError(f"decoder format must be csv or json-lines, got {self.format!r}")
        if not self.qoi_columns:
            raise ConfigError("decoder needs at least one qoi column")

    def to_json(self) -> dict:
        return {
            "output_relpath": self.output_relpath,
            "format": self.format,
            "qoi_columns": list(self.qoi_columns),
            "index_column": self.index_column,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DecoderSpec":
        for key in ("output_relpath", "format", "qoi_columns"):
            if key not in doc:
                raise ConfigError(f"decoder missing {key!r}")
        return cls(
            output_relpath=str(doc["output_relpath"]),
            format=str(doc["format"]),
            qoi_columns=tuple(str(c) for c in doc["qoi_columns"]),
            index_column=doc.get("index_column"),
        )


@dataclass(frozen=True)
class AppSpec:
    template_path: str                # resolved, absolute
    delimiter: str
    target: str                       # rendered filename inside the run dir
    command: tuple[str, ...]
    decoder: DecoderSpec
    callable: str | None = None       # "module:function"; runs use it over `command`

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.callable is None and not self.command:
            raise ConfigError("app needs a non-empty command or a callable")
        if self.callable is not None and not CALLABLE_RE.match(self.callable):
            raise ConfigError(f"app callable must be module:function, got {self.callable!r}")

    def to_json(self) -> dict:
        return {
            "template": self.template_path,
            "delimiter": self.delimiter,
            "target": self.target,
            "command": list(self.command),
            "callable": self.callable,
            "decoder": self.decoder.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict, base_dir: Path | None = None) -> "AppSpec":
        for key in ("template", "decoder"):
            if key not in doc:
                raise ConfigError(f"app missing {key!r}")
        template = Path(str(doc["template"]))
        if base_dir is not None and not template.is_absolute():
            template = base_dir / template
        command = doc.get("command", ())
        if isinstance(command, str):
            command = command.split()
        call = doc.get("callable")
        return cls(
            template_path=str(template),
            delimiter=str(doc.get("delimiter", "$")),
            target=str(doc.get("target", template.name)),
            command=tuple(str(c) for c in command),
            decoder=DecoderSpec.from_json(doc["decoder"]),
            callable=None if call is None else str(call),
        )


@dataclass(frozen=True)
class CampaignConfig:
    name: str
    app: AppSpec
    parameters: tuple[ParameterDef, ...]


def parse_config(doc: dict, base_dir: Path | None = None) -> CampaignConfig:
    """Validate a config document and cross-check the template placeholders."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    for key in ("name", "app", "parameters"):
        if key not in doc:
            raise ConfigError(f"config missing top-level key {key!r}")
    raw_params = doc["parameters"]
    if not isinstance(raw_params, list) or not raw_params:
        raise ConfigError("config declares zero parameters")
    params = tuple(ParameterDef.from_json(p) for p in raw_params)
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            raise ConfigError(f"duplicate parameter name {p.name!r}")
        seen.add(p.name)
    app = AppSpec.from_json(doc["app"], base_dir=base_dir)
    if Path(app.decoder.output_relpath) == Path(app.target):
        # each attempt starts by deleting the output of the one before it
        raise ConfigError(f"decoder output {app.target!r} is also the rendered input")

    template = Path(app.template_path)
    if not template.is_file():
        raise ConfigError(f"template file not found: {template}")
    from uqpilot.campaign.encode import placeholders
    for ph in placeholders(template.read_text(), app.delimiter):
        if ph not in seen:
            raise TemplateError(f"template placeholder {ph!r} has no matching parameter")
    return CampaignConfig(name=str(doc["name"]), app=app, parameters=params)


def load_config(path: str | Path) -> CampaignConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)
