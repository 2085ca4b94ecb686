"""Test-only helpers shared by several test modules, as fixtures."""
from fractions import Fraction

import numpy as np
import pytest

from codeforge import f2
from codeforge.classical import LowerBound
from codeforge.soundness import decode_residual, quarter_square


def _tanner_components(m):
    """Connected components of the check/qubit graph of m, as
    (qubit-index set, check-index set) pairs; an isolated qubit or an
    empty check is a component of its own."""
    rows, cols = m.shape
    # union-find over checks [0, rows) and qubits [rows, rows + cols)
    parent = list(range(rows + cols))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in np.argwhere(m):
        parent[find(int(i))] = find(rows + int(j))
    groups: dict[int, tuple[set, set]] = {}
    for v in range(rows + cols):
        qubits, checks = groups.setdefault(find(v), (set(), set()))
        if v < rows:
            checks.add(v)
        else:
            qubits.add(v - rows)
    return list(groups.values())


def _single_shot_trial(model, e, u, budget=4):
    """One noisy-readout decode: (residual reduced weight, bound met).

    Repairs the observed syndrome, decodes it, reduces the residual over
    the stabilizer coset and compares it with quarter_square(2 |u|)."""
    residual = decode_residual(model, e, u, budget)
    if residual is None:
        return LowerBound(budget), False
    rw = model.reduced_weight(residual, budget)
    bound = quarter_square(2 * f2.weight(u))
    return rw, not isinstance(rw, LowerBound) and Fraction(rw) <= bound


@pytest.fixture
def tanner_components():
    return _tanner_components


@pytest.fixture
def single_shot_trial():
    return _single_shot_trial
