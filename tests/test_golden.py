"""CLI output pinned byte for byte against reference CSVs.

``tests/data/golden/<case>.csv`` holds the output of each case below as
written by the per-mode-loop implementation of the closed forms.  The array
implementation must reproduce it exactly; the only intended difference is
the ``c`` column of ``tune``, which the loop version wrote as
``np.float64(x)`` under numpy 2 and which is now a plain float ``repr``.

Regenerate a file only for a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py tests/data/golden
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from netcoh.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

GAINS = {
    "p": "controller = p\nf = 1.3\ng = 0.7\nf0 = 0.2\ng0 = 0.5\n",
    "dapi": "controller = dapi\nf = 2.0\ng = 0.3\ng0 = 1.0\nki = 0.8\nc = 0.1\n",
    "fdpd": "controller = fdpd\nf = 1.0\ng = 0.5\nf0 = 0.3\nkd = 1.2\ntau = 0.4\n",
    "fdpd0": "controller = fdpd\nf = 1.0\ng = 0.5\nf0 = 0.3\nkd = 1.2\ntau = 0.0\n",
}

GRAPH = "7\n1 2 0.5\n2 3 1.7\n3 4 0.9\n4 5 1.1\n5 6 2.3\n6 7 0.4\n1 7 1.3\n2 5 0.8\n3 6 0.6\n"

# case name -> (argv without --gains-file/--out, gains key)
CASES = {
    "variance_ring12_p_closed": (["variance", "--family", "ring", "--n", "12"], "p"),
    "variance_path9_dapi_closed": (["variance", "--family", "path", "--n", "9", "--l", "1.3"], "dapi"),
    "variance_torus2_fdpd_closed": (["variance", "--family", "torus2", "--n", "3"], "fdpd"),
    "variance_complete6_fdpd0_closed": (["variance", "--family", "complete", "--n", "6"], "fdpd0"),
    "variance_graph_dapi_closed": (["variance", "--graph", "{graph}"], "dapi"),
    "variance_graph_p_closed": (["variance", "--graph", "{graph}"], "p"),
    "variance_ring12_p_modal": (["variance", "--family", "ring", "--n", "12", "--method", "modal"], "p"),
    "variance_path9_dapi_modal": (
        ["variance", "--family", "path", "--n", "9", "--l", "1.3", "--method", "modal"], "dapi"),
    "variance_graph_fdpd_modal": (["variance", "--graph", "{graph}", "--method", "modal"], "fdpd"),
    "variance_complete6_fdpd0_modal": (
        ["variance", "--family", "complete", "--n", "6", "--method", "modal"], "fdpd0"),
    "scale_complete_dapi": (["scale", "--family", "complete", "--sizes", "4,8,16,32,64,128"], "dapi"),
    "scale_complete_p": (["scale", "--family", "complete", "--sizes", "geometric:3:96:2"], "p"),
    "tune_ring16_dapi": (["tune", "--family", "ring", "--n", "16"], "dapi"),
    "tune_complete10_dapi": (["tune", "--family", "complete", "--n", "10"], "dapi"),
    "tune_graph_dapi": (["tune", "--graph", "{graph}", "--grid-points", "16"], "dapi"),
}

_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def run_case(name: str, workdir: Path) -> str:
    argv, gains = CASES[name]
    graph = workdir / "graph.txt"
    graph.write_text(GRAPH)
    gains_file = workdir / f"{gains}.cfg"
    gains_file.write_text(GAINS[gains])
    out = workdir / f"{name}.csv"
    argv = [a.format(graph=graph) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--gains-file", str(gains_file), "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return out.read_text()


def _plain_tune_column(text: str) -> str:
    """Rewrite ``np.float64(x)`` cells of the tune grid's ``c`` column as ``x``."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines[1:-1], start=1):
        c, rest = line.split(",", 1)
        found = _NUMPY_SCALAR.fullmatch(c)
        if found:
            lines[k] = f"{found.group(1)},{rest}"
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text()
    if name.startswith("tune_"):
        expected = _plain_tune_column(expected)
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (target / f"{case}.csv").write_text(run_case(case, Path(tmp)))
