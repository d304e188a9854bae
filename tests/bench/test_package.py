"""``repro.bench`` re-exports its modules' names lazily, so running one
of those modules with ``-m`` loads it once."""

import os
import pathlib
import subprocess
import sys

import repro
import repro.bench


def test_harness_runs_as_main_without_a_second_import():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.bench.harness", "--help"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_re_exports_resolve():
    for name in repro.bench.__all__:
        assert getattr(repro.bench, name) is not None
