"""Block-matrix builders for every code family in the hierarchy:
HGP, SEHGP, CPHR rotations, BSH, SSH/BSSH, RSH/BRSH, and the 3D XZZX code.

Every builder composes row bands, then constructs and validates one
BlockTaggedCss: each row band carries an X-part and a Z-part over the full
qubit register, and the qubit register is split into tagged column blocks.
Commutation-preserving Hadamard rotations (CPHR) swap the X- and Z-parts
of one column block within chosen bands of a band list; after a swap a
band may mix X and Z support, and the code is XZZX-like rather than CSS.
A BlockTaggedCss is itself a CssCode, stacked from its bands once and
marked paired when some band is mixed, so every check, count and search
runs on it; code_distance is the one whole-code distance.

Label notation: '@' is the Kronecker product, 'I' an identity block,
'dk[J]' the degree-k boundary of complex J, a trailing 'T' its transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical, css, f2
from .classical import ClassicalCode, LowerBound
from .complexes import ChainComplex, tensor
from .css import CssCode


@dataclass
class Band:
    """One stabilizer row band: paired X- and Z-parts plus block labels."""

    x: np.ndarray
    z: np.ndarray
    x_labels: list[str]
    z_labels: list[str]

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def mixed(self) -> bool:
        return bool(self.x.any()) and bool(self.z.any())


def _stack(bands: list[Band], n: int):
    """hx, hz and the paired flag of a band list on n qubits.  With a mixed
    band every band's X and Z parts are paired rows; otherwise hx holds the
    nonzero X bands and hz the nonzero Z bands, in band order."""
    paired = any(b.mixed for b in bands)

    def stack(parts):
        return (f2.block_compose([[m] for m in parts]) if parts
                else f2.zeros(0, n))

    return (stack([b.x for b in bands if paired or b.x.any()]),
            stack([b.z for b in bands if paired or b.z.any()]), paired)


class BlockTaggedCss(CssCode):
    """A code family instance: a CssCode that keeps its band/block structure.

    The bands are stacked into hx/hz (see _stack) and the code is
    validated (css.validate_css) once, here; no builder changes a code
    after constructing it.

    Attributes:
        family: One of HGP, SEHGP, BSH, SSH, BSSH, RSH1, RSH2, BRSH1,
            BRSH2, XZZX3D.
        bands: Ordered stabilizer row bands.
        col_sizes: Qubit column-block sizes (sums to n).
        hsx, hsz: Optional syndrome-check matrices over the stacked band
            rows of the X side / Z side.
        metadata: Premise flags, d_s, swap history, exactness flags, plus
            family, block_map (the band-by-band label grid) and
            paired_rows, set here.
    """

    def __init__(self, family: str, bands: list[Band], col_sizes: list[int],
                 hsx=None, hsz=None, metadata=None):
        self.family = family
        self.bands = bands
        self.col_sizes = list(col_sizes)
        n = sum(col_sizes)
        for b in bands:
            if b.x.shape[1] != n or b.z.shape[1] != n:
                raise ValueError("band width does not match qubit count")
        meta = dict(metadata or {})
        meta["family"] = family
        meta["block_map"] = [{"rows": b.rows, "x": list(b.x_labels),
                              "z": list(b.z_labels)} for b in bands]
        hx, hz, paired = _stack(bands, n)
        if paired:
            meta["paired_rows"] = True
        super().__init__(hx, hz, hsx=hsx, hsz=hsz, metadata=meta)
        self.validate()

    def check_count(self) -> int:
        """Number of measured stabilizers."""
        return self.stab_x.shape[0]

    def validate(self) -> None:
        css.validate_css(self)

    def logical_count(self) -> int:
        return css.logical_count(self)

    def __repr__(self):
        return (f"<BlockTaggedCss {self.family} n={self.n} "
                f"bands={[b.rows for b in self.bands]} cols={self.col_sizes}>")


def length1(code: ClassicalCode) -> ChainComplex:
    """The one-map complex bits -> checks of a classical code."""
    return ChainComplex([code.h])


def j_complex(c1: ClassicalCode, c2: ClassicalCode) -> ChainComplex:
    """Length-2 product complex of two classical codes."""
    return tensor(length1(c1), length1(c2))


def identical_code_premise(code: ClassicalCode) -> bool:
    """ker H = ker H^T, the premise behind the identical-code parameter
    formulas (closed-loop repetition rings satisfy it)."""
    kh = f2.kernel_basis(code.h)
    kht = f2.kernel_basis(code.h.T)
    if kh.shape != kht.shape:
        return False
    if kh.shape[0] == 0:
        return True
    t = f2.RowSpaceTester(kh)
    return bool(t.contains_batch(kht).all())


def hgp(h1, h2) -> BlockTaggedCss:
    """Hypergraph product of two check matrices.

    hx = [H1 (x) I | I (x) H2^T], hz = [I (x) H2 | H1^T (x) I] over qubit
    blocks (bit-bit, check-check).  Parameters follow the product formulas
    n' = n1 n2 + m1 m2, k' = k1 k2 + k1T k2T.

    Args:
        h1: First check matrix (m1 x n1).
        h2: Second check matrix (m2 x n2).
    """
    h1 = f2.as_f2(h1)
    h2 = f2.as_f2(h2)
    m1, n1 = h1.shape
    m2, n2 = h2.shape
    hx = f2.block_compose([[f2.kron(h1, f2.identity(n2)),
                            f2.kron(f2.identity(m1), h2.T)]])
    hz = f2.block_compose([[f2.kron(f2.identity(n1), h2),
                            f2.kron(h1.T, f2.identity(m2))]])
    col_sizes = [n1 * n2, m1 * m2]
    n = sum(col_sizes)
    bands = [
        Band(f2.zeros(hz.shape[0], n), hz, ["0", "0"], ["I@H2", "H1T@I"]),
        Band(hx, f2.zeros(hx.shape[0], n), ["H1@I", "I@H2T"], ["0", "0"]),
    ]
    return BlockTaggedCss("HGP", bands, col_sizes,
                          metadata={"inputs": [list(h1.shape), list(h2.shape)]})


def _bands(jc: ChainComplex, kc: ChainComplex):
    """The four row bands of the SEHGP code of q = J (x) K over its
    degree-2 qubit blocks: Z bands are the degree-3 row blocks of d3^T,
    X bands the degree-1 row blocks of d2, each labelled block by block."""
    # tensor validates both factors, and their product always chains
    q = tensor(jc, kc)
    cells = q.components[2]
    n = sum(s for _, _, s in cells)
    bands = []
    for z, m, rows in ((True, q.boundary(3).T, q.components[3]),
                       (False, q.boundary(2), q.components[1])):
        t = "T" if z else ""
        r0 = 0
        for i, j, size in rows:
            labels = []
            for a, b, _ in cells:
                # the boundary component from cell (hi, hj) down to (lo, lj)
                (hi, hj), (lo, lj) = ((i, j), (a, b)) if z else ((a, b), (i, j))
                if (hi, hj) == (lo + 1, lj):
                    labels.append(f"d{hi}{t}[J]@I")
                elif (hi, hj) == (lo, lj + 1):
                    labels.append(f"I@d{hj}{t}[K]")
                else:
                    labels.append("0")
            part, empty = m[r0:r0 + size], f2.zeros(size, n)
            zero = ["0"] * len(cells)
            bands.append(Band(empty, part, zero, labels) if z
                         else Band(part, empty, labels, zero))
            r0 += size
    return bands, [s for _, _, s in cells]


def _base_metadata(codes) -> dict:
    """Base code names (code0..code3, or base for a single base code, when
    unnamed) and the identical-code premise flag, with a warning when some
    base code breaks the premise."""
    fallback = ["base"] if len(codes) == 1 else [f"code{i}" for i in range(4)]
    premise = all(identical_code_premise(c) for c in codes)
    meta = {"base": [c.name or f for c, f in zip(codes, fallback)],
            "identical_code_premise": premise}
    if not premise:
        meta["warning"] = "identical-code premise violated; closed-form parameter identities not guaranteed"
    return meta


def sehgp(x: ClassicalCode, y: ClassicalCode, z: ClassicalCode,
          w: ClassicalCode) -> BlockTaggedCss:
    """Four classical codes -> length-4 product complex
    j_complex(x, y) (x) j_complex(z, w) -> stabilizer code.

    Qubits sit at degree 2; hz rows come from d3^T (two bands), hx rows
    from d2 (two bands).  With four identical closed-loop repetition
    inputs the counts are 6n^4 qubits, 8n^4 checks, 6k^4 logicals.
    """
    bands, col_sizes = _bands(j_complex(x, y), j_complex(z, w))
    return BlockTaggedCss("SEHGP", bands, col_sizes,
                          metadata=_base_metadata((x, y, z, w)))


def cphr(bands: list[Band], col_sizes: list[int],
         swaps: list[dict]) -> list[Band]:
    """Apply CPHR swaps, in order, to a band list: each swaps the X- and
    Z-parts of qubit column block col_band in the 1-based row_bands.

    A swap is a Hadamard rotation of the block's qubits only when every
    band with support there is rotated together; a strict subset generally
    anticommutes with the untouched bands.  cphr constructs nothing: a
    builder applies all its swaps, stores them as its "swaps" metadata,
    and constructs one code, whose validation rejects such a result.  The
    kind, "T1" or "T2", names one of the two standard band pairs.

    Returns:
        New bands; the inputs are untouched.  The same swap twice restores
        the input bands bit-exactly.

    Raises:
        ValueError: for a kind other than T1 and T2.
        IndexError: for a row band or column block that does not exist.
    """
    bands = list(bands)
    for swap in swaps:
        if swap["kind"] not in ("T1", "T2"):
            raise ValueError("kind must be 'T1' or 'T2'")
        j = swap["col_band"] - 1
        if not 0 <= j < len(col_sizes):
            raise IndexError(f"no column block {swap['col_band']}")
        sl = slice(sum(col_sizes[:j]), sum(col_sizes[:j + 1]))
        for bi in swap["row_bands"]:
            if not 1 <= bi <= len(bands):
                raise IndexError(f"no row band {bi}")
            band = bands[bi - 1]
            x, z = band.x.copy(), band.z.copy()
            x[:, sl], z[:, sl] = band.z[:, sl], band.x[:, sl]
            x_labels, z_labels = list(band.x_labels), list(band.z_labels)
            x_labels[j], z_labels[j] = band.z_labels[j], band.x_labels[j]
            bands[bi - 1] = Band(x, z, x_labels, z_labels)
    return bands


def bsh(x: ClassicalCode, y: ClassicalCode, z: ClassicalCode,
        w: ClassicalCode) -> BlockTaggedCss:
    """Bias-tailored code of sehgp(x, y, z, w): both CPHR swaps on the
    middle qubit block, plus the three-band disjoint syndrome-check
    matrices built from the factor complexes J = j_complex(x, y) and
    K = j_complex(z, w).

    The T2 swap rotates bands 2 and 3, the T1 swap bands 1 and 4, all in
    the big middle column block; only the composite is a qubit-local basis
    change.  Each syndrome-check band is the next boundary map of the
    product complex whose image the corresponding syndrome band lies in,
    so the annihilation identities hold exactly (validation checks them).
    """
    jc, kc = j_complex(x, y), j_complex(z, w)
    bands, col_sizes = _bands(jc, kc)
    meta = _base_metadata((x, y, z, w))
    meta["swaps"] = [{"kind": "T2", "row_bands": [2, 3], "col_band": 2},
                     {"kind": "T1", "row_bands": [1, 4], "col_band": 2}]
    bands = cphr(bands, col_sizes, meta["swaps"])
    d1j, d2j = jc.boundary(1), jc.boundary(2)
    d1k, d2k = kc.boundary(1), kc.boundary(2)
    ij0, ij2 = f2.identity(jc.dim(0)), f2.identity(jc.dim(2))
    ik0, ik2 = f2.identity(kc.dim(0)), f2.identity(kc.dim(2))
    # X-side syndromes: bands 1+2 are the image of one product-complex
    # boundary (checked jointly), bands 3 and 4 are single-factor images.
    hsx = f2.block_compose([
        [f2.kron(ij2, d2k.T), f2.kron(d2j.T, ik2), None, None],
        [None, None, f2.kron(ij0, d1k), None],
        [None, None, None, f2.kron(d1j, ik0)],
    ])
    hsz = f2.block_compose([
        [f2.kron(ij2, d2k.T), None, None, None],
        [None, f2.kron(d2j.T, ik2), None, None],
        [None, None, f2.kron(ij0, d1k), f2.kron(d1j, ik0)],
    ])
    meta["syndrome_checks_exact"] = True
    meta["hsx_labels"] = [
        ["I@d2T[K]", "d2T[J]@I", "0", "0"],
        ["0", "0", "I@d1[K]", "0"],
        ["0", "0", "0", "d1[J]@I"],
    ]
    meta["hsz_labels"] = [
        ["I@d2T[K]", "0", "0", "0"],
        ["0", "d2T[J]@I", "0", "0"],
        ["0", "0", "I@d1[K]", "d1[J]@I"],
    ]
    ds_x, ds_z = (classical.SupportMatcher.for_columns(h).least_weight(4)
                  for h in (hsx, hsz))
    vals = [d for d in (ds_x, ds_z) if not isinstance(d, LowerBound)]
    meta["d_s"] = min(vals) if vals else ds_x
    return BlockTaggedCss("BSH", bands, col_sizes, hsx=hsx, hsz=hsz,
                          metadata=meta)


def ssh(base: ClassicalCode) -> BlockTaggedCss:
    """Slimmed product code on 5n^4 qubits from a single base code.

    Forms the length-2 product complex J of the base with itself, then the
    hypergraph product of the two derived check matrices d2[J] and d1^T[J].
    Column blocks are ordered (check-check 4n^4, bit-bit n^4) to match the
    printed two-band layout.
    """
    return _slim(base, "SSH")


def bssh(base: ClassicalCode) -> BlockTaggedCss:
    """T2-rotated slim product code with the two-copy syndrome checks.

    The attached hsx/hsz follow the printed diag / anti-diag two-block
    patterns.  The underlying length-2 complex has no higher boundary, so
    only one block of each pattern annihilates its band exactly; the
    per-block outcome is recorded in metadata and validation relaxes the
    annihilation requirement accordingly.  The patterns swap the two
    bands, whose heights differ unless the base check matrix is square,
    so any other base raises ValueError.
    """
    if base.h.shape[0] != base.h.shape[1]:
        raise ValueError("bssh needs a square base check matrix, got "
                         "{}x{}".format(*base.h.shape))
    return _slim(base, "BSSH")


def _slim(base: ClassicalCode, family: str) -> BlockTaggedCss:
    """ssh(base) for family SSH, else bssh(base) under the family name."""
    jc = j_complex(base, base)
    h1 = jc.boundary(2)        # 2n^2 x n^2
    h2 = jc.boundary(1).T      # 2n^2 x n^2
    m1, n1 = h1.shape
    m2, n2 = h2.shape
    n = m1 * m2 + n1 * n2
    col_sizes = [m1 * m2, n1 * n2]
    hz_blocks = [f2.kron(h1.T, f2.identity(m2)), f2.kron(f2.identity(n1), h2)]
    hx_blocks = [f2.kron(f2.identity(m1), h2.T), f2.kron(h1, f2.identity(n2))]
    bands = [
        Band(f2.zeros(n1 * m2, n), f2.block_compose([hz_blocks]),
             ["0", "0"], ["d2T[J]@I", "I@d1T[J]"]),
        Band(f2.block_compose([hx_blocks]), f2.zeros(m1 * n2, n),
             ["I@d1[J]", "d2[J]@I"], ["0", "0"]),
    ]
    meta = _base_metadata((base,))
    if family == "SSH":
        return BlockTaggedCss(family, bands, col_sizes, metadata=meta)
    meta["swaps"] = [{"kind": "T2", "row_bands": [1, 2], "col_band": 2}]
    bands = cphr(bands, col_sizes, meta["swaps"])
    d1j, d2j = jc.boundary(1), jc.boundary(2)
    i_n = f2.identity(jc.dim(2))
    hs_block = f2.kron(i_n, d2j.T)
    band_rows = [b.rows for b in bands]
    hsx = f2.block_compose([
        [f2.zeros(hs_block.shape[0], band_rows[0]), hs_block],
        [hs_block, f2.zeros(hs_block.shape[0], band_rows[1])],
    ])
    hsz_block = f2.kron(d1j, i_n)
    hsz = f2.block_compose([
        [hsz_block, f2.zeros(hsz_block.shape[0], band_rows[1])],
        [f2.zeros(hsz_block.shape[0], band_rows[0]), hsz_block],
    ])
    hx, hz, _ = _stack(bands, n)
    exact_x = not f2.mat_mul(hsx, hx).any()
    exact_z = not f2.mat_mul(hsz, hz).any()
    meta["syndrome_checks_exact"] = bool(exact_x and exact_z)
    meta["syndrome_check_annihilation"] = {"hsx": bool(exact_x), "hsz": bool(exact_z)}
    meta["hsx_labels"] = [["0", "I@d2T[J]"], ["I@d2T[J]", "0"]]
    meta["hsz_labels"] = [["d1[J]@I", "0"], ["0", "d1[J]@I"]]
    meta["d_s"] = classical.SupportMatcher.for_columns(hsz).least_weight(4)
    return BlockTaggedCss(family, bands, col_sizes, hsx=hsx, hsz=hsz,
                          metadata=meta)


def rsh(x: ClassicalCode, y: ClassicalCode, z: ClassicalCode,
        w: ClassicalCode, which: int) -> BlockTaggedCss:
    """Two-band truncation of the code sehgp(x, y, z, w) to 5n^4 qubits.

    which=1 keeps the (bit-bit, middle) qubit blocks with the X band
    [I@d2[K], d1[J]@I] and Z band [d1T[J]@I, I@d2T[K]]; which=2 keeps the
    (middle, check-check) blocks with the mirrored bands.  Syndrome checks
    have no closed form; they are the canonical row-space complements of
    the column spaces, so H_RS @ H_RSH = 0 with the rank identity
    rank(H_RSH) + rows(H_RS) = band rows.
    """
    return _truncation((x, y, z, w), which, rotate=False)


def brsh(x: ClassicalCode, y: ClassicalCode, z: ClassicalCode,
         w: ClassicalCode, which: int) -> BlockTaggedCss:
    """T2 rotation of rsh(x, y, z, w, which) on its big middle column
    block, with the syndrome checks of the rotated code."""
    return _truncation((x, y, z, w), which, rotate=True)


def _truncation(codes, which: int, rotate: bool) -> BlockTaggedCss:
    """rsh, or brsh with rotate: cut, swap, then take the kernels once."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    src, src_sizes = _bands(j_complex(*codes[:2]), j_complex(*codes[2:]))
    # which=1 keeps column blocks 1-2 with bands 2 (Z) and 3 (X), which=2
    # keeps blocks 2-3 with bands 1 (Z) and 4 (X)
    keep = slice(which - 1, which + 1)
    cols = slice(sum(src_sizes[:which - 1]), sum(src_sizes[:which + 1]))
    zband, xband = (src[1], src[2]) if which == 1 else (src[0], src[3])
    hz, hx = zband.z[:, cols], xband.x[:, cols]
    col_sizes = src_sizes[keep]
    n = sum(col_sizes)
    bands = [
        Band(f2.zeros(hz.shape[0], n), hz, ["0", "0"], zband.z_labels[keep]),
        Band(hx, f2.zeros(hx.shape[0], n), xband.x_labels[keep], ["0", "0"]),
    ]
    meta = _base_metadata(codes)
    meta["syndrome_checks_exact"] = True
    meta["syndrome_checks_numeric"] = True
    if rotate:
        # the big middle block is the second kept block for which=1
        meta["swaps"] = [{"kind": "T2", "row_bands": [1, 2],
                          "col_band": 3 - which}]
        bands = cphr(bands, col_sizes, meta["swaps"])
    hx, hz, _ = _stack(bands, n)
    family = ("BRSH" if rotate else "RSH") + str(which)
    return BlockTaggedCss(family, bands, col_sizes,
                          hsx=f2.kernel_basis(hx.T), hsz=f2.kernel_basis(hz.T),
                          metadata=meta)


def xzzx3d(n: int) -> BlockTaggedCss:
    """Three-dimensional XZZX-type code: the rotated slim product of a
    closed-loop repetition ring, relabeled.  Bit-exactly equal to
    bssh(repetition_closed_loop(n)).

    Raises:
        ValueError: if n < 2.
    """
    if n < 2:
        raise ValueError("xzzx3d needs n >= 2")
    return _slim(classical.repetition_closed_loop(n), "XZZX3D")


def code_distance(c: CssCode, max_weight: int, k: int | None = None):
    """Minimum logical Pauli weight of the whole code, up to max_weight.

    k, the code's logical count, is passed when the caller has it; k = 0
    raises NoLogicalsError.  Unpaired codes take the cheaper per-sector
    kernel/coset search over both sectors in one css.distance call;
    paired codes run the symplectic search over all Pauli patterns.
    """
    k = css.logical_count(c) if k is None else k
    if k < 1:
        raise css.NoLogicalsError("code has no logical qubits")
    if c.paired:
        return pauli_distance(c.stab_x, c.stab_z, max_weight)
    return css.distance(c, "XZ", max_weight, k)


def pauli_distance(stab_x, stab_z, max_weight: int):
    """Minimum Pauli weight of an undetected non-stabilizer error.

    Works on paired-row stabilizers: a candidate (ex, ez) is undetected iff
    stab_x @ ez + stab_z @ ex = 0, and logical iff (ex|ez) lies outside the
    row space of [stab_x | stab_z].  One SupportMatcher walks the
    undetected supports by increasing weight (the X, Z and Y syndrome
    columns of a qubit form one group); each search step is tested for
    row-space membership in one batch, and the search stops at the first
    step holding a non-stabilizer (SupportMatcher.least_weight).

    Returns:
        Exact distance if found, else LowerBound(max_weight).
    """
    stab_x = f2.as_f2(stab_x)
    stab_z = f2.as_f2(stab_z)
    n = stab_x.shape[1]
    tester = f2.RowSpaceTester(np.concatenate([stab_x, stab_z], axis=1))
    # an X error on q triggers stab_z column q, a Z error stab_x column q
    matcher = classical.SupportMatcher.for_paulis(
        np.concatenate([stab_z, stab_x], axis=1))
    qubit = np.array([q for q, _, _ in matcher.entries], dtype=np.int64)
    xbit = np.array([p in "XY" for _, p, _ in matcher.entries], dtype=np.uint8)
    zbit = np.array([p in "ZY" for _, p, _ in matcher.entries], dtype=np.uint8)

    def logical(supp):
        # a support holds one entry per qubit, so no bit is written twice
        hits = np.zeros((len(supp), 2 * n), dtype=np.uint8)
        rows = np.arange(len(supp))[:, None]
        hits[rows, qubit[supp]] = xbit[supp]
        hits[rows, n + qubit[supp]] = zbit[supp]
        return not tester.contains_batch(hits).all()

    return matcher.least_weight(max_weight, logical)
