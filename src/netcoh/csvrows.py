"""CSV text for float64 columns, every cell the float's shortest round-trip ``repr``.

Rows are formatted in blocks of about ``BLOCK_CELLS`` cells, so the text and
the stacked floats of one block are all that is held at a time, however wide
or long the table.  A row whose every cell is ``+-0.0`` or has
``1e-4 <= |x| < 1e16`` goes through orjson, whose Ryu digits equal
``repr``'s there; outside that range the two differ in form only (Ryu writes
``1e16`` and ``1e-7`` where ``repr`` writes ``1e+16`` and ``1e-07``, and
``1e-5 <= |x| < 1e-4`` positionally), and orjson writes non-finite values as
``null``.  Every other row is joined from ``repr`` of its cells.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

BLOCK_CELLS = 1 << 14


def csv_lines(columns: Sequence[np.ndarray]) -> Iterator[list[str]]:
    """Yield the rows of ``np.column_stack(columns)`` as CSV lines, one list per block.

    Each ``columns`` entry is a float64 array of one row count, 1-D for one
    column or 2-D for several.  Each yielded list holds the lines, without
    their newlines, of up to ``BLOCK_CELLS`` cells (at least one row).
    """
    import orjson  # only the CSV writers need it

    rows = max(1, BLOCK_CELLS // sum(1 if col.ndim == 1 else col.shape[1] for col in columns))
    for start in range(0, len(columns[0]), rows):
        block = np.column_stack([col[start : start + rows] for col in columns])
        mag = np.abs(block)
        ryu = (((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0)).all(axis=1)
        # "[[a,b],[c,d]]" -> ["a,b", "c,d"]
        fast = orjson.dumps(block[ryu], option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
        if ryu.all():
            yield fast
        else:
            rest = iter(fast)
            yield [next(rest) if ok else ",".join(map(repr, row))
                   for ok, row in zip(ryu.tolist(), block.tolist())]
