"""CSV text for float64 columns, every cell the float's shortest round-trip ``repr``.

Rows are formatted in blocks of about ``BLOCK_CELLS`` cells, so the text and
the floats of one block are all that is held at a time, however wide or long
the table.  orjson writes the floats; its Ryu digits equal ``repr``'s for
every cell that is ``+-0.0`` or has ``1e-4 <= |x| < 1e16``.  Outside that
range the two differ in form only (Ryu writes ``1e16`` and ``1e-7`` where
``repr`` writes ``1e+16`` and ``1e-07``, and ``1e-5 <= |x| < 1e-4``
positionally), and orjson writes non-finite values as ``null``, so such a
cell is written by ``repr`` instead.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

BLOCK_CELLS = 1 << 14


def _repr_form(x: np.ndarray) -> np.ndarray:
    """Where Ryu's text differs from ``repr``'s: exponent form or not finite."""
    mag = np.abs(x)
    return ~(((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0))


def csv_blocks(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Yield the rows of ``np.column_stack(columns)`` as CSV text, one string per block.

    Each ``columns`` entry is a float64 array of one row count, 1-D for one
    column or 2-D for several.  Each yielded string holds up to
    ``BLOCK_CELLS`` cells (at least one row), every line ending in a newline.
    orjson writes each whole block; only a row holding a cell in ``repr``
    form is split out and joined again from ``repr`` of its cells.
    """
    import orjson  # only the CSV writers need it

    rows = max(1, BLOCK_CELLS // sum(1 if col.ndim == 1 else col.shape[1] for col in columns))
    for start in range(0, len(columns[0]), rows):
        block = np.column_stack([col[start : start + rows] for col in columns])
        bad = np.flatnonzero(_repr_form(block).any(axis=1))
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()  # "a,b],[c,d"
        if not bad.size:
            yield text.replace("],[", "\n") + "\n"
            continue
        lines = text.split("],[")
        for i, row in zip(bad.tolist(), block[bad].tolist()):
            lines[i] = ",".join(map(repr, row))
        yield "\n".join(lines) + "\n"


def indexed_csv_blocks(index: np.ndarray, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Yield ``n,a,b,...`` rows of an int64 ``index`` and 1-D float64 ``columns``, one string per block.

    For a few columns and many rows: orjson writes each column of a block as
    one 1-D array, which costs far less per row than a 2-D block, and the
    cells are joined row by row.  Blocks and lines are as in :func:`csv_blocks`.
    """
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY
    rows = max(1, BLOCK_CELLS // len(columns))
    for start in range(0, len(index), rows):
        cells = [orjson.dumps(index[start : start + rows], option=option)[1:-1].decode().split(",")]
        for col in columns:
            part = np.ascontiguousarray(col[start : start + rows])  # orjson takes C-contiguous arrays only
            text = orjson.dumps(part, option=option)[1:-1].decode().split(",")
            for i in np.flatnonzero(_repr_form(part)).tolist():
                text[i] = repr(float(part[i]))
            cells.append(text)
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
