"""Per-state CSV rows, and their writing in one part per usable CPU.

The i_C, i_D, x and y cells of a state are the same text in every
per-state CSV (stationary, gradient, field, informed_map, occupancy), so
`state_text` formats them once per population size, as one string and an
int64 offset per state, and `StateRows` lead each row with the state's
slice of it.  Rows are built one block of `BLOCK_ROWS` states at a time,
as the writer reads them.

`write_rows` writes `StateRows` of at least 2 `PART_ROWS` rows in n =
min(usable CPUs, rows // `PART_ROWS`) contiguous parts.  Children forked
by `markov._children` format parts 1 and up into ``<path>.part<j>``; the
caller formats part 0 straight into the file, then appends each part and
deletes it: by `os.sendfile` on Linux, a copy in the kernel, else in 64 KB
reads, so it never holds more than 64 KB of a child's text.  A
`_children` child counts one usable CPU (`markov._usable_cpus`), so sweep
panels and simulator segments write in one process, and so does a run
held to one CPU (``taskset -c 0``).  The bytes do not depend on the
split, and no part file outlives the call, whether it succeeds or fails.
Any other rows are written in one process.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .markov import StateIndex, _children, _usable_cpus
from .replicator import _row_blocks

# Fewest rows in a part of a split CSV.  A part's child takes 3-5 ms to fork and collect;
# a row of one float column takes about 1.6 us to format, and one of six about 5 us
# (z = 200), so a part of 2**12 rows saves 6.5-20 ms.
PART_ROWS = 1 << 12


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


class StateRows:
    """CSV rows of the states (i_c, i_d): the state's `state_text`, then its cell of each column.

    The columns are arrays aligned with i_c and i_d.  Sized, and sliced by a
    range of states, so that `write_rows` can split them.  Lazy: nothing, not
    even `state_text`, runs before the writer slices or reads them; slicing
    formats the state text, so that the children of a split inherit it.
    """

    def __init__(self, z: int, i_c: np.ndarray, i_d: np.ndarray, *columns: np.ndarray):
        self.z, self.i_c, self.i_d, self.columns = z, i_c, i_d, columns

    def __len__(self) -> int:
        return len(self.i_c)

    def __getitem__(self, states: slice) -> StateRows:
        state_text(self.z)
        return StateRows(self.z, self.i_c[states], self.i_d[states], *(col[states] for col in self.columns))

    def __iter__(self):
        text, offsets = state_text(self.z)
        first = StateIndex.for_population(self.z).offsets  # flat index of (i_c, 0)
        for rows in _row_blocks(len(self)):
            s = first[self.i_c[rows]] + self.i_d[rows]
            yield from zip(map(text.__getitem__, map(slice, offsets[s].tolist(), offsets[s + 1].tolist())),
                           *(col[rows].tolist() for col in self.columns))


def _write_lines(fh, rows) -> None:
    for row in rows:
        fh.write(",".join(map(str, row)) + "\n")


def _write_part(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_lines(fh, rows)


def write_rows(path: Path, fh, rows) -> None:
    """Write each row's cells, as their ``str()``, comma-separated, a line a row, to
    ``fh``, the text file open at ``path``: split as the module docstring says."""
    n = min(_usable_cpus(), len(rows) // PART_ROWS) if isinstance(rows, StateRows) else 1
    if n < 2:
        _write_lines(fh, rows)
        return
    bounds = [len(rows) * j // n for j in range(n + 1)]
    parts = [Path(f"{path}.part{j}") for j in range(1, n)]
    try:
        with _children() as fork:
            waits = [fork(_write_part, part, rows[lo:hi]) for part, lo, hi in zip(parts, bounds[1:], bounds[2:])]
            _write_lines(fh, rows[:bounds[1]])
            fh.flush()
            for part, wait in zip(parts, waits):
                wait()
                with open(part, "rb") as src:
                    if sys.platform == "linux":  # a kernel copy, file to file, only here
                        while os.sendfile(fh.fileno(), src.fileno(), None, 1 << 20):
                            pass
                    else:
                        for chunk in iter(lambda: src.read(1 << 16), b""):
                            fh.buffer.write(chunk)
                part.unlink()
    finally:  # after a failure, once the children are reaped
        for part in parts:
            if not part.is_dir():  # a directory in the part's place is not the run's to remove
                part.unlink(missing_ok=True)
