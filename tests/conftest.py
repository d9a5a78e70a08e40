import json
import os
from pathlib import Path

import pytest

from uqpilot import errors

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "demo" / "covid-demo" / "config.json"

# every toolkit error class, for the tests that pin each CLI's exit codes
UQ_ERRORS = [cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.UqError)]

_terminal = None


def pytest_configure(config):
    global _terminal
    _terminal = config.pluginmanager.get_plugin("terminalreporter")


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    if _terminal is None:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    _terminal.write_line(f"[acceptance] {name}: {outcome}")


@pytest.fixture
def demo_config_path(tmp_path) -> Path:
    """Copy of the covid-demo config rooted in a temp dir."""
    doc = json.loads(DEMO_CONFIG.read_text())
    template = (DEMO_CONFIG.parent / doc["app"]["template"]).read_text()
    (tmp_path / "input.template").write_text(template)
    doc["app"]["template"] = "input.template"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child Python that must import this ``uqpilot``.

    A relative ``PYTHONPATH`` entry (``src``) resolves against the child's
    cwd, so a child started in a run directory would not find the package.
    Put the absolute directory of the imported package first; any existing
    entries stay behind it.
    """
    import uqpilot

    env = dict(os.environ)
    root = str(Path(uqpilot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def warm_pythonpath(monkeypatch) -> str:
    """Set ``PYTHONPATH`` to the absolute directory of the imported package
    alone, so that a ``python -m`` task can start warm and import it."""
    import uqpilot

    root = str(Path(uqpilot.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", root)
    return root


def write_config(
    tmp_path: Path,
    parameters: list[dict],
    template: str,
    command: list[str],
    decoder: dict | None = None,
    name: str = "test-campaign",
    delimiter: str = "$",
    target: str = "input.json",
) -> Path:
    """Write a minimal campaign config + template into tmp_path."""
    (tmp_path / "input.template").write_text(template)
    doc = {
        "schema_version": 1,
        "name": name,
        "app": {
            "template": "input.template",
            "delimiter": delimiter,
            "target": target,
            "command": command,
            "decoder": decoder
            or {
                "output_relpath": "out.csv",
                "format": "csv",
                "qoi_columns": ["y"],
                "index_column": "t",
            },
        },
        "parameters": parameters,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def uniform_param(name: str, lo: float, hi: float, default: float | None = None) -> dict:
    return {
        "name": name,
        "kind": "real",
        "default": (lo + hi) / 2 if default is None else default,
        "distribution": {"type": "uniform", "args": [lo, hi]},
    }
