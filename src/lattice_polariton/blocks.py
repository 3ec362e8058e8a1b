"""Row blocks of fixed size for (rows x width) temporaries.

The secular solver (roots x poles), the spectra's resonance sums (grid
points x resonances) and the one-mode sweeps (grid points) all work
through such arrays a block of rows at a time, so their memory stays fixed
whatever N is.
"""

from __future__ import annotations

import numpy as np

# Elements of one (rows x width) temporary, about 0.5 MB, whatever N is.
CHUNK_ELEMENTS = 1 << 16
# Largest array set a run builds whole: the dense (N+1) x (N+1) float64
# eigenvectors, or the columns of a command's dataset.
DENSE_BUDGET_BYTES = 2e9


def row_blocks(total: int, width: int, buffers: int = 0, elements: int = CHUNK_ELEMENTS):
    """Row ranges [r0, r1) whose (rows x width) blocks fit ``elements``,
    each with ``buffers`` scratch arrays of that shape.  The scratch arrays
    are reused from block to block: fresh ones would have their pages
    faulted in again each time, which costs as much as the arithmetic."""
    step = max(1, elements // max(width, 1))
    scratch = [np.empty((min(step, total), width)) for _ in range(buffers)]
    for r0 in range(0, total, step):
        r1 = min(total, r0 + step)
        yield r0, r1, [b[: r1 - r0] for b in scratch]

