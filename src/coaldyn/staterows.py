"""Per-state CSV rows.

The i_C, i_D, x and y cells of a state are the same text in every
per-state CSV (stationary, gradient, field, informed_map, occupancy), so
`state_text` formats them once per population size, as one string and an
int64 offset per state, and `state_rows` leads each row with the state's
slice of it.  Rows are built one block of `BLOCK_ROWS` states at a time,
as the writer reads them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .markov import StateIndex
from .replicator import _row_blocks


@lru_cache(maxsize=1)
def state_text(z: int) -> tuple[str, np.ndarray]:
    """The "i_C,i_D,x,y" text of every state, as one string and its int64 offsets.

    State s, in state order, reads text[offsets[s]:offsets[s + 1]], with x
    nan where no member exists.  Formatted once per population size, one
    i_c row at a time: every panel of a sweep shares it.  The y cell takes
    only z + 1 values, one per coalition size, so each is formatted once.
    """
    y = list(map(str, (np.arange(z + 1) / z).tolist()))
    rows = []
    offsets = np.zeros((z + 1) * (z + 2) // 2 + 1, dtype=np.int64)  # lengths, then their running sum
    start = 1
    for i_c in range(z + 1):
        i_m = np.arange(i_c, z + 1)
        x = np.divide(i_c, i_m, out=np.full(z + 1 - i_c, np.nan), where=i_m > 0)
        cells = [f"{i_c},{i_d},{xv},{yv}" for i_d, (xv, yv) in enumerate(zip(x.tolist(), y[i_c:]))]
        offsets[start : start + len(cells)] = list(map(len, cells))
        start += len(cells)
        rows.append("".join(cells))
    np.cumsum(offsets, out=offsets)
    offsets.setflags(write=False)
    return "".join(rows), offsets


def state_rows(z: int, i_c: np.ndarray, i_d: np.ndarray, *columns: np.ndarray):
    """CSV rows of the states (i_c, i_d): the state's `state_text`, then its cell of each column.

    The columns are arrays aligned with i_c and i_d.  Lazy: nothing, not even
    `state_text`, runs before the writer reads the first row.
    """
    text, offsets = state_text(z)
    first = StateIndex.for_population(z).offsets  # flat index of (i_c, 0)
    for rows in _row_blocks(len(i_c)):
        s = first[i_c[rows]] + i_d[rows]
        yield from zip(map(text.__getitem__, map(slice, offsets[s].tolist(), offsets[s + 1].tolist())),
                       *(col[rows].tolist() for col in columns))
