"""Row blocks of fixed size for (rows x width) temporaries, and Python's
float arithmetic applied to arrays.

The secular solver (roots x poles) and the spectra's resonance sums (grid
points x resonances) both work through such arrays a block of rows at a
time, so their memory stays fixed whatever N is.  The one-mode sweeps give
the bytes of a loop over Python floats: ``libm`` maps what numpy rounds
otherwise through Python's own functions, and ``quotient`` raises where
Python's division does.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
from numpy import ndarray

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


def libm(f, *args):
    """f of numbers, or elementwise of arrays of one shape, through the
    Python function f itself: numpy's cos, tan, hypot and x**2 differ from
    libm's, which Python's math and ``**`` call, in the last bit for a few
    arguments in a thousand.  A number among arrays is passed as it is, and
    f raises as it raises on numbers.  The arrays are read through
    memoryviews, which make one Python number at a time."""
    for a in args:
        if isinstance(a, ndarray):
            cells = [memoryview(b.ravel()) if isinstance(b, ndarray) else repeat(b) for b in args]
            return np.fromiter(map(f, *cells), float, a.size).reshape(a.shape)
    return f(*args)


def quotient(numerator, denominator: float):
    """numerator / denominator for a number or an array numerator: a zero
    denominator raises ZeroDivisionError, as Python's float division does,
    where numpy would give inf."""
    if denominator == 0.0 and isinstance(numerator, ndarray):
        raise ZeroDivisionError("float division by zero")
    return numerator / denominator
