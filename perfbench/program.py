"""Find the checkout the benchmark runs in and import crsplucker from its source tree.

The benchmark never uses an installed copy of the package: it measures the
source that sits next to it, so the tree under test is the tree being timed.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "crsplucker"
TMP_DIR = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / ".perfbench-out"


class MissingProgram(RuntimeError):
    """The checkout holds no crsplucker source tree to measure."""


def require():
    """The package's __init__.py; raises MissingProgram when the checkout has none."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no {PACKAGE} source tree under {SRC}")
    return init


def load():
    """Import crsplucker from ROOT/src and return the package."""
    init = require()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve() != init.resolve():
        raise MissingProgram(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


@contextmanager
def temp_dir():
    """A private temp directory inside the checkout, removed afterwards."""
    TMP_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
            yield Path(tmp)
    finally:
        try:
            TMP_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def child_env():
    """Environment for a child interpreter that must import the same source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CRS_PLUCKER_CACHE", None)
    return env


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Tracked numbers recorded with every result; none of them is gated."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }
