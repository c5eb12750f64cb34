"""Names that code outside the package reaches: ``mpmolab.__all__`` and the benchmark tracer."""

import os
import subprocess
import sys
from pathlib import Path

import mpmolab

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in mpmolab.__all__ if not hasattr(mpmolab, name)]
    assert missing == []


def test_benchmark_tracer_installs():
    # install looks up every name it patches (mutate_path, the runner globals
    # of harness, ...), so one deleted or moved away fails here; it runs in a
    # child process because it patches the modules it imports
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]))
    code = "import mpmolab, tracer; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
