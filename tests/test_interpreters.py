"""The CLI prints the same bytes under every Python >= 3.10 that pyenv provides.

Each interpreter runs in isolated mode (``-I``: no site-packages, no
``PYTHONPATH``) ``prop41`` on the 34 ``ADAMS_POOLS`` instances and
``verdict --batch`` on the seed-0 verdict-p3 corpus of ``perfbench/corpus.py``,
in text and in JSON, and the sha256 of its stdout must equal the running
interpreter's.  Neither command imports a third-party package on these inputs
(p = 3 spin numbers are rational, so no numeric estimate is printed).  The test
is skipped where pyenv is missing or has no other interpreter >= 3.10.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from corpus import ADAMS_POOLS, generate  # noqa: E402

SCRIPT = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from equispin.cli import main\n"
    "for argv in json.loads(Path(sys.argv[2]).read_text()):\n"
    "    assert main(argv) == 0, argv\n"
)


def pyenv_interpreters() -> list[Path]:
    """pyenv's CPython interpreters >= 3.10, but for the running version."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
    found = []
    for python in sorted(Path(root, "versions").glob("*/bin/python3")):
        try:
            version = tuple(int(part) for part in python.parent.parent.name.split("."))
        except ValueError:  # not a plain CPython release
            continue
        if version >= (3, 10) and version != sys.version_info[:3]:
            found.append(python)
    return found


def test_stdout_is_the_same_under_every_interpreter(tmp_path):
    others = pyenv_interpreters()
    if not others:
        pytest.skip("no pyenv interpreter >= 3.10 besides the running one")
    generate("verdict-p3", 0, tmp_path)
    commands = []
    for fmt in ("text", "json"):
        for pool in ADAMS_POOLS.values():
            for m, n in pool:
                commands.append(["prop41", "--m", ",".join(map(str, m)), "--n", ",".join(map(str, n)), "--format", fmt])
        commands.append(["verdict", "--batch", str(tmp_path / "datasets"), "--format", fmt])
    argv_file = tmp_path / "commands.json"
    argv_file.write_text(json.dumps(commands))
    runs = {
        str(python): subprocess.Popen(
            [str(python), "-I", "-c", SCRIPT, str(ROOT / "src"), str(argv_file)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for python in [Path(sys.executable)] + others
    }
    digests = {}
    for python, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (python, err.decode()[-2000:])
        digests[python] = hashlib.sha256(out).hexdigest()
    assert len(set(digests.values())) == 1, digests
