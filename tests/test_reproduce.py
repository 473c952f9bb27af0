"""scripts/reproduce_tables.py, pinned by the SHA-256 digest of its output.

The script composes, segments and reads the closed forms off the J, tree4 and
permutohedron4 fixtures; a change to any of those paths that alters what it
prints shows up here.
"""

import hashlib
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
STDOUT_SHA256 = "a86a342f3658daafbb0981ebf4f2eddaffec9581a3763f76154013a0f796f74e"


def test_reproduce_tables_output():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256
