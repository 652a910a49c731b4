"""Write the frozen grad-check fixture: stdout, exit status and ``--out``
JSON of a matrix of ``grad-check`` runs.

Each case runs ``losslab.cli.main`` in process, in an empty directory, with
``--out grad-check.json`` appended to its flags. The committed
``gradcheck_frozen.json`` is the fixture; this script documents how it was
made. Run it from the repository root:
``PYTHONPATH=src python tests/fixtures/make_gradcheck_frozen.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from losslab.cli import main

OUT = "grad-check.json"


def sized(positions: int, vocab: int) -> list[str]:
    return ["--positions", str(positions), "--vocab", str(vocab)]


CASES = (
    [["grad-check"]]
    + [["grad-check", "--loss", "all", *sized(16, 64), "--seed", str(s)] for s in range(3)]
    + [["grad-check", "--loss", "all", *sized(4, 64), "--seed", str(s)] for s in range(8)]
    + [
        ["grad-check", "--loss", "ll", *sized(32, 64)],
        ["grad-check", "--loss", "ll", *sized(128, 128)],  # every row a tie: FAIL
        ["grad-check", "--loss", "combined", *sized(64, 64)],
        ["grad-check", "--loss", "all", *sized(16, 64), "--tolerance", "1e-12"],
    ]
)


def run(argv: list[str]) -> dict:
    """One case's argv, exit status, stdout and ``--out`` text."""
    argv = [*argv, "--out", OUT]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = main(argv)
            out = Path(OUT).read_bytes().decode("utf-8")
        finally:
            os.chdir(here)
    return {"argv": argv, "exit": status, "stdout": stdout.getvalue(), "out": out}


if __name__ == "__main__":
    target = Path(__file__).parent / "gradcheck_frozen.json"
    cases = [run(argv) for argv in CASES]
    target.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {target}", file=sys.stderr)
