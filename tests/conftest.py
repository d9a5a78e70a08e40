import json
import os
import sys
import sysconfig
from pathlib import Path

import pytest

from uqpilot import errors

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "demo" / "covid-demo" / "config.json"

# every toolkit error class, for the tests that pin each CLI's exit codes
UQ_ERRORS = [cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.UqError)]

# the console scripts of pyproject.toml, and the module each runs
CONSOLE_SCRIPTS = {"uq": "uqpilot.cli.uq", "pj": "uqpilot.cli.pj", "uq-toy": "uqpilot.toy"}

_terminal = None


@pytest.hookimpl(trylast=True)   # after the terminal reporter has registered
def pytest_configure(config):
    global _terminal
    _terminal = config.pluginmanager.get_plugin("terminalreporter")


def pytest_runtest_logreport(report):
    """One visible pass/fail line per test marked `acceptance`."""
    if report.when != "call" or "acceptance" not in report.keywords:
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


def package_env() -> dict[str, str]:
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
def child_env() -> dict[str, str]:
    return package_env()


@pytest.fixture(scope="session")
def console_scripts(tmp_path_factory) -> Path:
    """A directory holding `uq`, `pj` and `uq-toy`: the console scripts
    installed for this interpreter, where they are, else shims that run
    each one's module with ``python -m``. Either imports this ``uqpilot``
    under `package_env`."""
    bin_dir = tmp_path_factory.mktemp("bin")
    installed = Path(sysconfig.get_path("scripts"))
    for name, module in CONSOLE_SCRIPTS.items():
        script = bin_dir / name
        if (installed / name).is_file():
            script.symlink_to(installed / name)
        else:
            script.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m {module} "$@"\n')
            script.chmod(0o755)
    return bin_dir


@pytest.fixture
def module_dir(tmp_path, monkeypatch) -> Path:
    """A directory put first on ``PYTHONPATH``, before the absolute directory
    of the imported package, for modules that a callable app names."""
    import uqpilot

    mods = tmp_path / "mods"
    mods.mkdir()
    root = str(Path(uqpilot.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join((str(mods), root)))
    return mods


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
    callable: str | None = None,
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
    if callable is not None:
        doc["app"]["callable"] = callable
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
