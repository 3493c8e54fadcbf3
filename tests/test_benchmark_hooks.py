"""The names the benchmark harness in ``perfbench/`` reaches into the program by.

``perfbench/tracer.py`` wraps functions by module and name, ``worker.py``
reads the ``_point_term`` cache counters, and ``run.py`` times
``cli._build_parser()``.  A refactor that drops or renames one of them
breaks ``run.py --trace 1`` or its ``setup_s`` metric; this test makes that
a tier-1 failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOOKS = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
Tracer().install()
import checks
from equispin import cli, lefschetz
from equispin.dataset import fermat_quartic, to_json
lefschetz._point_term.cache_info()
cli._build_parser()
with open(sys.argv[3], "w") as fh:
    fh.write(to_json(fermat_quartic()))
assert cli.main(["verdict", sys.argv[3], "--format", "json"]) == 0
"""


def test_traced_names_and_setup_hooks_exist(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", HOOKS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "fermat.json")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
