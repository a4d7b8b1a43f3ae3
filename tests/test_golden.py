"""CLI output pinned byte for byte against reference CSVs.

``tests/data/golden/<case>.csv`` holds the output of each case below.  The
``--graph`` cases and the ``scale_complete_*`` sweeps were written by the
per-mode-loop implementation of the closed forms; the ring, path and torus
``scale_*`` sweeps and ``variance_ring8_fdpd_full`` were captured from the
per-family dispatch that the family table in ``graphs.py`` replaced.  The
``--family`` cases of ``variance --method closed|modal`` and ``tune`` were
re-captured from the family's closed-form spectrum, which those commands
take instead of a dense eigensolve (cells moved by at most 3.1e-15
relative).  ``variance_ring13_dapi_closed`` covers an odd ring, whose
twin values k and N-k are both written from one sine.  The five
``*_modal`` cases were re-captured when the modal oracle took its terms in
closed form from each mode's characteristic polynomial (23 cells moved, by
at most 9.3e-15 relative); the P-law ones now equal their closed-form
twins byte for byte.
The footers of the four ``tune_*`` cases were re-captured when the search
after the grid scan became the sign change of the exact dV_N/dc, their
grid rows byte-identical (``c_star`` now 0.0 on ring 16 and path 12).
Every ``c`` cell of ``tune`` is a plain float ``repr``.  The eleven ring and
torus cases were re-captured when each ring value of k > N/2 became that of
its twin N-k, computed from (N-k)/N < 1/2 (cells moved by at most 2.8e-15
relative; ``c_star`` stays 0.0 on ring 16, and ring 12's P modal case still
equals its closed-form twin).  ``variance_path9_dapi_modal`` was re-captured
when the modal oracle took its factors from one expansion of the controller
table as polynomials in lambda (5 cells moved, by at most 1.9e-16 relative;
the other modal cases are byte-identical).  The five cases with an even
ring or torus side, or a path, were re-captured when each value above 2 of
``4 sin^2(pi k / M)`` with even M became 4 less the value of ``M/2 - k``
(ring 12, torus1 10, and path 9 with M = 18: 34 cells moved, by at most
3.9e-16 relative, and no ``V_N``; ring 12's P modal case still equals its
closed-form twin, and the odd sides are byte-identical).

Regenerate files only for a deliberate output change: the entry point
writes the named cases, or every case when none is named::

    PYTHONPATH=src python tests/test_golden.py tests/data/golden [CASE ...]
"""

from __future__ import annotations

import contextlib
import io
import subprocess
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
    "scale_ring_p": (["scale", "--family", "ring", "--sizes", "geometric:8:512:2"], "p"),
    "scale_path_dapi": (
        ["scale", "--family", "path", "--sizes", "8,16,32,64,128", "--l", "1.3"], "dapi"),
    "scale_torus1_p": (["scale", "--family", "torus1", "--sizes", "geometric:8:128:2"], "p"),
    "scale_torus2_fdpd": (["scale", "--family", "torus2", "--sizes", "4,8,16,32"], "fdpd"),
    "scale_torus3_dapi": (["scale", "--family", "torus3", "--sizes", "3,4,6,8,12"], "dapi"),
    "variance_torus1_10_dapi_closed": (["variance", "--family", "torus1", "--n", "10"], "dapi"),
    "variance_torus3_3_p_modal": (
        ["variance", "--family", "torus3", "--n", "3", "--method", "modal"], "p"),
    "variance_ring8_fdpd_full": (["variance", "--family", "ring", "--n", "8", "--method", "full"], "fdpd"),
    "tune_path12_dapi": (["tune", "--family", "path", "--n", "12", "--grid-points", "16"], "dapi"),
    "variance_ring13_dapi_closed": (["variance", "--family", "ring", "--n", "13"], "dapi"),
}

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN_DIR / f"{name}.csv").read_text()


def test_regenerate_writes_only_the_named_cases(tmp_path):
    subprocess.run([sys.executable, __file__, str(tmp_path), "scale_complete_p"], check=True)
    assert [path.name for path in tmp_path.iterdir()] == ["scale_complete_p.csv"]
    assert (tmp_path / "scale_complete_p.csv").read_text() == (GOLDEN_DIR / "scale_complete_p.csv").read_text()


if __name__ == "__main__":
    import tempfile

    target, names = Path(sys.argv[1]), sys.argv[2:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            (target / f"{case}.csv").write_text(run_case(case, Path(tmp)))
