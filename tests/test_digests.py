"""`tools/digests.py` prints the recorded digest of every observable output, byte for byte."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = """\
verify: cc5afc91cf2052a7
demo 01: 205ba206dc31dbcc
demo 02: dec393c6f1f941da
demo 03: bbf5cd1c5363e003
demo 04: b53407fa2727ab59
demo 05: e2fb1b0a27cc8c5d
pipeline logs: 5c2d1948b5b90483
pipeline reports: ec9c7ae6096adc6e
forms: 156cdfc7a82763d5
labellings: 022611ad48415b4d
large forms: 427261e95943606a
reports: 08d98ccbae8b73ed
verdicts: c474ef17661a1e43
dims: 15a5e63cc379cb54
cli: b62c6ca4d4fdfe3b
"""


def test_digests_are_unchanged():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digests.py")],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGESTS
