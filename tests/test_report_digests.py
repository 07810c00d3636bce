"""Byte-for-byte pins on the outputs a refactor must leave alone.

Each verification suite's report, as `scripts/run_suites.py --json-dir`
writes it, and the stdout of each command-line example in the README are
hashed with sha256 and compared with tests/data/report_digests.json.  A
change of output that is meant regenerates that file:

    PYTHONPATH=src python tests/test_report_digests.py > tests/data/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from qhc.cli import main
from qhc.suites import SUITES, run_verify_suite

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"

# the examples of the README's "Command line" section, without the leading "qhc"
README_EXAMPLES = (
    'normalize --algebra daha "Ti*Y1*Ti"',
    'normalize --algebra sdaha "(q^-2 - 1)*R + Q1*P1"',
    'mul --algebra dq "detAi" "p11"',
    "diamonds --algebra sdaha",
    "hilbert --algebra inv --max 4 4",
    'rank --algebra sdaha "Q1*P1" "R" "Q1*P1 + R"',
    'act --gen E --algebra oq "l11 + q^-2*l22"',
    "verify --suite moment",
    "hc-check",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_digest(name: str) -> str:
    return _sha256(json.dumps(run_verify_suite(name), indent=2) + "\n")


def cli_digest(line: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(shlex.split(line))
    assert rc == 0, line
    return _sha256(out.getvalue())


def current_digests() -> dict:
    return {
        "suites": {name: suite_digest(name) for name in SUITES},
        "cli": {line: cli_digest(line) for line in README_EXAMPLES},
    }


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_output_is_pinned():
    pinned = _pinned()
    assert sorted(pinned["suites"]) == sorted(SUITES)
    assert sorted(pinned["cli"]) == sorted(README_EXAMPLES)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_is_byte_identical(name):
    assert suite_digest(name) == _pinned()["suites"][name]


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_example_output_is_byte_identical(line):
    assert cli_digest(line) == _pinned()["cli"][line]


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2))
