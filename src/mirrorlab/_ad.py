"""Second-order forward-mode differentiation in three variables, on lanes.

A `D2` carries the value, gradient and symmetric Hessian of a scalar at n
points at once (Griewank-Walther forward mode, one lane per point): `v` is a
float64 array of n lanes, `g` is 3 x n and `h` is 6 x n, packed xx, xy, xz,
yy, yz, zz.  Each lane takes the float operations of a scalar jet in the same
order, and float64 + - * / are correctly rounded elementwise, so a lane's
bits do not depend on the other lanes.  Branches are lane masks, chosen with
`where`.  `log` and `log1p` apply libm's `math.log` and `math.log1p` lane by
lane: numpy's vectorized `np.log` and `np.log1p` differ from libm in the last
bit on some inputs, which would change report bytes.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

# Hessian packing order: entry k is the pair (_I[k], _J[k]).
_I = [0, 0, 0, 1, 1, 2]
_J = [0, 1, 2, 1, 2, 2]
# Packed index of each 3x3 Hessian entry, row-major.
HESSIAN_INDEX = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]


class D2:
    """Scalars with first and second derivatives w.r.t. three variables."""

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None  # numpy defers to D2's own operators

    def __init__(self, v: np.ndarray, g: np.ndarray, h: np.ndarray):
        self.v = v
        self.g = g
        self.h = h

    @staticmethod
    def const(values) -> "D2":
        v = np.array(values, dtype=float)
        return D2(v, np.zeros((3, len(v))), np.zeros((6, len(v))))

    @staticmethod
    def var(values, index: int) -> "D2":
        """Coordinate `index` at the given lane values."""
        x = D2.const(values)
        x.g[index] = 1.0
        return x

    def __add__(self, o):
        if not isinstance(o, D2):
            return D2(self.v + o, self.g, self.h)
        return D2(self.v + o.v, self.g + o.g, self.h + o.h)

    __radd__ = __add__

    def __neg__(self):
        return D2(-self.v, -self.g, -self.h)

    def __sub__(self, o):
        if not isinstance(o, D2):
            return D2(self.v - o, self.g, self.h)
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, D2):
            return D2(self.v * o, self.g * o, self.h * o)
        g = self.g * o.v + self.v * o.g
        h = self.h * o.v + self.v * o.h + self.g[_I] * o.g[_J] + self.g[_J] * o.g[_I]
        return D2(self.v * o.v, g, h)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp) -> "D2":
        """Compose with a scalar function given f(v), f'(v), f''(v) per lane."""
        return D2(f, fp * self.g, fp * self.h + fpp * self.g[_I] * self.g[_J])


def where(mask: np.ndarray, a, b) -> D2:
    """Lane-wise a where mask holds, else b; a float is a constant jet."""
    parts = [(x.v, x.g, x.h) if isinstance(x, D2) else (x, 0.0, 0.0) for x in (a, b)]
    return D2(*(np.where(mask, x, y) for x, y in zip(*parts)))


def _libm(fn, v: np.ndarray, *consts) -> np.ndarray:
    """fn(x, *consts) for each element x of the 1-d v, through Python's libm floats."""
    return np.fromiter(map(fn, v.tolist(), *map(repeat, consts)), float, len(v))


def log(x: D2) -> D2:
    v = x.v
    return x._chain(_libm(math.log, v), 1.0 / v, -1.0 / (v * v))


def log1p(x: D2) -> D2:
    v = x.v
    d = 1.0 / (1.0 + v)
    return x._chain(_libm(math.log1p, v), d, -d * d)


# No command runs it: perfbench/spans.py patches it (ROADMAP F(b)).
def hessian_matrix(x: D2) -> np.ndarray:
    """The n x 3 x 3 Hessians of the lanes."""
    return x.h.T[:, HESSIAN_INDEX]
