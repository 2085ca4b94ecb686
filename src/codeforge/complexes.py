"""Chain complexes over GF(2): validation and graded tensor products.

A complex of length L is the sequence C_L -> ... -> C_1 -> C_0 with boundary
maps d_i: C_i -> C_{i-1} satisfying d_i d_{i+1} = 0.  Boundaries are stored
highest degree first, matching the display order used throughout.
"""
from __future__ import annotations

import numpy as np

from . import f2


class ComplexValidationError(ValueError):
    """Raised when a boundary sequence fails to chain."""


class ChainComplex:
    """Ordered boundary maps [d_L, ..., d_1] plus cell-space dimensions.

    Attributes:
        boundaries: List of uint8 matrices, d_i at index L - i.
        dims: [dim C_L, ..., dim C_0], length L + 1.
        components: Optional per-degree composition bookkeeping set by
            tensor(): maps degree k to an ordered list of (i, j, size)
            factor-degree tags describing the direct-sum blocks of C_k.
    """

    def __init__(self, boundaries, dims=None):
        self.boundaries = [f2.as_f2(b) for b in boundaries]
        if dims is None:
            if not self.boundaries:
                raise ValueError("need dims for a length-0 complex")
            dims = [self.boundaries[0].shape[1]] + [b.shape[0] for b in self.boundaries]
        self.dims = list(dims)
        if len(self.dims) != len(self.boundaries) + 1:
            raise ComplexValidationError("dims length must be boundary count + 1")
        self.components: dict[int, list[tuple[int, int, int]]] = {}

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def dim(self, k: int) -> int:
        """Dimension of the degree-k cell space."""
        self._check_degree(k)
        return self.dims[self.length - k]

    def boundary(self, k: int) -> np.ndarray:
        """The map d_k: C_k -> C_{k-1} (1 <= k <= length)."""
        if not 1 <= k <= self.length:
            raise IndexError(f"no boundary map at degree {k}")
        return self.boundaries[self.length - k]

    def _check_degree(self, k: int) -> None:
        if not 0 <= k <= self.length:
            raise IndexError(f"degree {k} outside 0..{self.length}")

    def validate(self) -> None:
        """Check shape chaining and d d = 0 at every adjacent pair.

        Raises:
            ComplexValidationError: naming the failing degree.
        """
        for k in range(1, self.length + 1):
            d = self.boundary(k)
            if d.shape != (self.dim(k - 1), self.dim(k)):
                raise ComplexValidationError(
                    f"boundary {k} has shape {d.shape}, expected "
                    f"({self.dim(k - 1)}, {self.dim(k)})")
        for k in range(1, self.length):
            prod = f2.mat_mul(self.boundary(k), self.boundary(k + 1))
            if prod.any():
                raise ComplexValidationError(
                    f"d{k} d{k + 1} != 0: composite is nonzero at degree {k}")


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Graded tensor product in the printed block order.

    Degree-k cells are the direct sum of X_i (x) Y_j over i + j = k, by
    increasing i, but degree 3 of two length-2 factors by decreasing i:
    the four-band stabilizer layouts index blocks against that order.
    The block from (i, j) to (i - 1, j) is d_i[X] (x) 1, and to
    (i, j - 1) it is 1 (x) d_j[Y]; over GF(2) the result always chains.
    """
    x.validate()
    y.validate()
    total = x.length + y.length
    comp: dict[int, list[tuple[int, int, int]]] = {}
    for k in range(total + 1):
        pairs = [(i, k - i) for i in range(k + 1)
                 if i <= x.length and k - i <= y.length]
        if k == 3 and x.length == y.length == 2:
            pairs.reverse()
        comp[k] = [(i, j, x.dim(i) * y.dim(j)) for i, j in pairs]
    boundaries = []
    for k in range(total, 0, -1):
        src = comp[k]
        dst = comp[k - 1]
        dst_pos = {(i, j): p for p, (i, j, _) in enumerate(dst)}
        layout = [[None] * len(src) for _ in dst]
        for col, (i, j, _) in enumerate(src):
            if i >= 1 and (i - 1, j) in dst_pos:
                layout[dst_pos[(i - 1, j)]][col] = f2.kron(
                    x.boundary(i), f2.identity(y.dim(j)))
            if j >= 1 and (i, j - 1) in dst_pos:
                layout[dst_pos[(i, j - 1)]][col] = f2.kron(
                    f2.identity(x.dim(i)), y.boundary(j))
        # a block row/col could be all-None only if a cell space has dim 0;
        # splice explicit zero blocks so block_compose can size them
        for r, (_, _, rdim) in enumerate(dst):
            for c, (_, _, cdim) in enumerate(src):
                if layout[r][c] is None:
                    layout[r][c] = f2.zeros(rdim, cdim)
        boundaries.append(f2.block_compose(layout))
    dims = [sum(s for _, _, s in comp[k]) for k in range(total, -1, -1)]
    out = ChainComplex(boundaries, dims)
    out.components = comp
    return out
