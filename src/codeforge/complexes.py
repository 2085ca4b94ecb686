"""Chain complexes over GF(2): validation, graded tensor products, Betti numbers.

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

    def betti(self, k: int) -> int:
        """dim ker d_k - rank d_{k+1}, with maps off the ends read as zero."""
        self._check_degree(k)
        ker_dim = self.dim(k) - (f2.rank(self.boundary(k)) if k >= 1 else 0)
        im_dim = f2.rank(self.boundary(k + 1)) if k + 1 <= self.length else 0
        return ker_dim - im_dim

    def transposed(self) -> "ChainComplex":
        """The cochain direction: reverse and transpose every boundary."""
        return ChainComplex([b.T.copy() for b in reversed(self.boundaries)])


def _natural_components(x: ChainComplex, y: ChainComplex, k: int):
    """Degree-k factor pairs (i, j), i + j = k, in increasing i order."""
    return [(i, k - i) for i in range(k + 1)
            if i <= x.length and 0 <= k - i <= y.length]


def tensor_generic(x: ChainComplex, y: ChainComplex,
                   orders: dict[int, list[tuple[int, int]]] | None = None
                   ) -> ChainComplex:
    """Graded tensor product with explicit block bookkeeping.

    Degree-k cells are the direct sum of X_i (x) Y_j over i + j = k.  The
    boundary acts factor-wise: the block from (i, j) to (i - 1, j) is
    d_i[X] (x) 1, and to (i, j - 1) it is 1 (x) d_j[Y].  Over GF(2) there is
    no sign bookkeeping and the result always chains.

    Args:
        x: Left factor (validated).
        y: Right factor (validated).
        orders: Optional per-degree override of the component order; default
            is increasing first-factor degree, which puts X_0 (x) Y_1 above
            X_1 (x) Y_0 in degree 1.

    Returns:
        The product complex, with .components filled in.
    """
    x.validate()
    y.validate()
    orders = orders or {}
    total = x.length + y.length
    comp: dict[int, list[tuple[int, int, int]]] = {}
    for k in range(total + 1):
        pairs = orders.get(k, _natural_components(x, y, k))
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


# The length-2 x length-2 product is printed with the degree-3 summand in
# decreasing first-factor order (X2 (x) Y1 above X1 (x) Y2); every other
# degree uses increasing order.  The four-band stabilizer layouts downstream
# index blocks against exactly this order.
L2L2_DEGREE3_ORDER = [(2, 1), (1, 2)]


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Graded tensor product in the canonical printed block order.

    For two length-2 factors the degree-3 component order is overridden to
    match the printed four-band boundary displays; all other shapes use the
    increasing-first-degree order of tensor_generic.
    """
    if x.length == 2 and y.length == 2:
        return tensor_generic(x, y, orders={3: L2L2_DEGREE3_ORDER})
    return tensor_generic(x, y)
