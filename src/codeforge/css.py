"""The one stabilizer code type: paired GF(2) check blocks.

A CSS code is (hx, hz) with hx hz^T = 0; hx rows detect Z errors, hz rows
detect X errors.  A rotated (XZZX-like) code is stored in the same two
blocks with paired rows: row i of hx and row i of hz are the X and Z parts
of one stabilizer, and commutation is the symplectic condition.  Every
check, count, search and decoder runs on this type; stab_x/stab_z give
the symplectic view of either kind.  Optional syndrome-check matrices
hsx/hsz protect the measured syndromes themselves (hsx annihilates hx,
hsz annihilates hz).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import classical, f2, matio
from .classical import LowerBound


class CssValidationError(ValueError):
    """Raised for anticommuting stabilizers or broken syndrome checks."""


class CommutationBrokenError(CssValidationError):
    """Raised when two stabilizers anticommute (e.g. after a block swap)."""


class NoLogicalsError(ValueError):
    """Raised when a distance is requested for a k = 0 code."""


@dataclass
class PauliError:
    """Binary-pair representation of a Pauli operator.

    Y on qubit i sets both ex[i] and ez[i]; weight counts qubits where
    either bit is set.
    """

    ex: np.ndarray
    ez: np.ndarray

    def __post_init__(self):
        self.ex = f2.as_f2_vector(self.ex)
        self.ez = f2.as_f2_vector(self.ez)
        if self.ex.shape != self.ez.shape:
            raise ValueError("ex and ez lengths differ")

    @classmethod
    def identity(cls, n: int) -> "PauliError":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def single(cls, n: int, qubit: int, pauli: str) -> "PauliError":
        """Weight-1 error: pauli in {'X', 'Y', 'Z'} on the given qubit."""
        e = cls.identity(n)
        if pauli in ("X", "Y"):
            e.ex[qubit] = 1
        if pauli in ("Z", "Y"):
            e.ez[qubit] = 1
        if pauli not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli {pauli!r}")
        return e

    def __mul__(self, other: "PauliError") -> "PauliError":
        """Group product (phases dropped): bitwise XOR of both sectors."""
        return PauliError(self.ex ^ other.ex, self.ez ^ other.ez)

    @property
    def n(self) -> int:
        return self.ex.shape[0]

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.ex | self.ez))


class CssCode:
    """Paired check blocks plus optional syndrome checks and metadata.

    Attributes:
        hx: X-type checks (detect Z errors), or the X parts of paired rows.
        hz: Z-type checks (detect X errors), or the Z parts of paired rows.
        hsx: Optional checks on the hx syndrome (hsx @ hx = 0).
        hsz: Optional checks on the hz syndrome (hsz @ hz = 0).
        metadata: Free-form dict (family name, premise flags, d_s, ...).
    """

    def __init__(self, hx, hz, hsx=None, hsz=None, metadata=None):
        self.hx = f2.as_f2(hx)
        self.hz = f2.as_f2(hz)
        self.hsx = None if hsx is None else f2.as_f2(hsx)
        self.hsz = None if hsz is None else f2.as_f2(hsz)
        self.metadata = dict(metadata or {})

    @property
    def n(self) -> int:
        return self.hx.shape[1]

    @property
    def paired(self) -> bool:
        """True when row i of hx and row i of hz form one stabilizer."""
        return bool(self.metadata.get("paired_rows"))

    @property
    def stab_x(self) -> np.ndarray:
        """X parts of the measured stabilizers: hx, or [hx; 0] unpaired."""
        if self.paired:
            return self.hx
        return np.concatenate([self.hx, f2.zeros(self.hz.shape[0], self.n)])

    @property
    def stab_z(self) -> np.ndarray:
        """Z parts of the measured stabilizers: hz, or [0; hz] unpaired."""
        if self.paired:
            return self.hz
        return np.concatenate([f2.zeros(self.hx.shape[0], self.n), self.hz])

    def stabilizer_weight(self) -> int:
        """Max row weight across both blocks (reported, never enforced)."""
        return max(int(h.sum(axis=1).max(initial=0))
                   for h in (self.hx, self.hz))

    def __repr__(self):
        fam = self.metadata.get("family", "css")
        return f"<CssCode {fam} n={self.n} checks={self.stab_x.shape[0]}>"


def validate_css(c: CssCode) -> None:
    """Check commutation and (when exact) syndrome-check annihilation.

    Raises:
        CommutationBrokenError: naming the first anticommuting row pair.
        CssValidationError: on a qubit-count mismatch or a failing
            syndrome-check block.
    """
    if c.hx.shape[1] != c.hz.shape[1]:
        raise CssValidationError(
            f"qubit count mismatch: hx has {c.hx.shape[1]} cols, hz {c.hz.shape[1]}")
    comm = f2.mat_mul(c.hx, c.hz.T)
    if c.paired:
        # row i of hx and row i of hz are one stabilizer; commutation is
        # the symplectic condition m + m^T = 0, m = hx hz^T
        comm = comm ^ comm.T
    if comm.any():
        i, j = map(int, np.argwhere(comm)[0])
        raise CommutationBrokenError(
            f"anticommuting stabilizers: hx row {i}, hz row {j}")
    if c.metadata.get("syndrome_checks_exact", True):
        if c.hsx is not None and f2.mat_mul(c.hsx, c.hx).any():
            raise CssValidationError("hsx does not annihilate hx")
        if c.hsz is not None and f2.mat_mul(c.hsz, c.hz).any():
            raise CssValidationError("hsz does not annihilate hz")


def logical_count(c: CssCode) -> int:
    """k = n - rank([stab_x | stab_z]), which is n - rank(hx) - rank(hz)
    for an unpaired code.  Does not validate; callers that need a valid
    code call validate_css first."""
    return c.n - f2.rank(np.concatenate([c.stab_x, c.stab_z], axis=1))


def distance(c: CssCode, kind: str, max_weight: int, k: int | None = None):
    """Minimum weight of a kernel element outside the opposite row space.

    Args:
        c: An unpaired code with k >= 1.
        kind: 'X' scans ker hx minus rowspace(hz); 'Z' the mirror; 'XZ'
            both, for the code distance with one k >= 1 check.
        max_weight: Search cap; SupportMatcher.least_weight walks the
            kernel supports by increasing weight and stops at the first
            search step with a vector outside the stabilizer coset.
        k: The code's logical_count, when the caller already has it.

    Returns:
        The least exact distance found within the cap over the scanned
        kinds, else LowerBound(max_weight).
    """
    if kind not in ("X", "Z", "XZ"):
        raise ValueError("kind must be 'X', 'Z' or 'XZ'")
    if (logical_count(c) if k is None else k) < 1:
        raise NoLogicalsError("code has no logical qubits")

    def sector(side):
        ker_of, excl_of = (c.hx, c.hz) if side == "X" else (c.hz, c.hx)
        excl = f2.RowSpaceTester(excl_of)

        def logical(supp):
            # entry j of a column matcher is column j
            hits = np.zeros((len(supp), c.n), dtype=np.uint8)
            hits[np.arange(len(supp))[:, None], supp] = 1
            return not excl.contains_batch(hits).all()

        return classical.SupportMatcher.for_columns(ker_of).least_weight(
            max_weight, logical)

    found = [d for d in map(sector, kind) if not isinstance(d, LowerBound)]
    return min(found, default=LowerBound(max_weight))


def export_bundle(c: CssCode, outdir, extra: dict | None = None) -> None:
    """Write the code as a four-file alist bundle plus a JSON manifest."""
    os.makedirs(outdir, exist_ok=True)
    files = {"hx": c.hx, "hz": c.hz}
    if c.hsx is not None:
        files["hsx"] = c.hsx
    if c.hsz is not None:
        files["hsz"] = c.hsz
    for name, m in files.items():
        matio.write_alist(m, os.path.join(outdir, f"{name}.alist"))
    manifest = {
        "qubits": c.n,
        "checks_x": c.hx.shape[0],
        "checks_z": c.hz.shape[0],
        "stabilizer_weight": c.stabilizer_weight(),
        "files": sorted(f"{name}.alist" for name in files),
        "metadata": _jsonable(c.metadata),
    }
    manifest.update(_jsonable(extra or {}))
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(indir) -> CssCode:
    """Read a bundle written by export_bundle."""
    with open(os.path.join(indir, "manifest.json")) as fh:
        manifest = json.load(fh)

    def opt(name):
        path = os.path.join(indir, f"{name}.alist")
        return matio.read_alist(path) if os.path.exists(path) else None

    return CssCode(matio.read_alist(os.path.join(indir, "hx.alist")),
                   matio.read_alist(os.path.join(indir, "hz.alist")),
                   hsx=opt("hsx"), hsz=opt("hsz"),
                   metadata=manifest.get("metadata", {}))


def _jsonable(obj):
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, LowerBound):
        return {"lower_bound": obj.value}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
