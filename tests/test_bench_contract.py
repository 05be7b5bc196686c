"""The benchmark's contract with the program, checked by the test suite.

`bench/` wraps program functions by name (`bench/spans.py`) and expects
some of them to record calls on each workload (`bench/workloads.py`).
A refactor that renames or unbinds one of them breaks the benchmark run;
this test makes that a test failure.  It only reads `bench/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _run(args, **kwargs):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k not in ("ESACERT_CONFIG", "ESACERT_TRACE")}
    # no bytecode caches under bench/
    env.update(PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300, **kwargs)


def test_benchmark_contract():
    # the harness's own self-test: seeding, a tiny checked session, and
    # tampered expectations caught
    proc = _run([str(BENCH / "selftest.py")], cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
    # the same imports as a benchmark session (bench/child.py), then the
    # tracer's install, which reports the targets it could not find
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import esacert\n"
        "import esacert.cli\n"
        "from esacert import stability\n"
        "from spans import Tracer\n"
        "import workloads\n"
        "tracer = Tracer()\n"
        "missing = set(tracer.install())\n"
        "expected = set().union(*workloads.EXPECTED_SPANS.values())\n"
        "print(sorted(expected & missing))\n"
        "print(sorted(s for s in expected if not tracer.bindings.get(s)))\n")
    proc = _run(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
