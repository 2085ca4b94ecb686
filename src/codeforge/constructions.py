"""Block-matrix builders for every code family in the hierarchy:
HGP, SEHGP, CPHR rotations, BSH, SSH/BSSH, RSH/BRSH, and the 3D XZZX code.

Builders keep the construction structure in a banded, block-tagged form:
each row band carries an X-part and a Z-part over the full qubit register,
and the qubit register is split into tagged column blocks.
Commutation-preserving Hadamard rotations (CPHR) swap the X- and Z-parts
of one column block within chosen bands; after a swap a band may mix X and
Z support, and the code is XZZX-like rather than CSS.  Every check, count
and search runs on the CssCode view (BlockTaggedCss.css), which marks such
codes as paired; code_distance is the one whole-code distance.

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

    def copy(self) -> "Band":
        return Band(self.x.copy(), self.z.copy(),
                    list(self.x_labels), list(self.z_labels))


class BlockTaggedCss:
    """A code family instance with explicit band/block structure.

    Attributes:
        family: One of HGP, SEHGP, BSH, SSH, BSSH, RSH1, RSH2, BRSH1,
            BRSH2, XZZX3D.
        bands: Ordered stabilizer row bands.
        col_sizes: Qubit column-block sizes (sums to n).
        hsx, hsz: Optional syndrome-check matrices over the stacked band
            rows of the X side / Z side.
        metadata: Premise flags, d_s, swap history, exactness flags.
    """

    def __init__(self, family: str, bands: list[Band], col_sizes: list[int],
                 hsx=None, hsz=None, metadata=None):
        self.family = family
        self.bands = bands
        self.col_sizes = list(col_sizes)
        self.hsx = None if hsx is None else f2.as_f2(hsx)
        self.hsz = None if hsz is None else f2.as_f2(hsz)
        self.metadata = dict(metadata or {})
        n = sum(col_sizes)
        for b in bands:
            if b.x.shape[1] != n or b.z.shape[1] != n:
                raise ValueError("band width does not match qubit count")

    @property
    def n(self) -> int:
        return sum(self.col_sizes)

    @property
    def col_offsets(self) -> list[int]:
        out = [0]
        for s in self.col_sizes:
            out.append(out[-1] + s)
        return out

    @property
    def paired(self) -> bool:
        """True when some band mixes X and Z support (post-rotation)."""
        return any(b.mixed for b in self.bands)

    @property
    def stab_x(self) -> np.ndarray:
        return f2.block_compose([[b.x] for b in self.bands])

    @property
    def stab_z(self) -> np.ndarray:
        return f2.block_compose([[b.z] for b in self.bands])

    @property
    def css(self) -> CssCode:
        """CssCode view: pure bands are split by type; mixed codes keep the
        full X/Z sides, marked as paired rows."""
        meta = dict(self.metadata)
        meta["family"] = self.family
        meta["block_map"] = self.block_map()
        if self.paired:
            meta["paired_rows"] = True
            return CssCode(self.stab_x, self.stab_z,
                           hsx=self.hsx, hsz=self.hsz, metadata=meta)
        hx_rows = [b.x for b in self.bands if b.x.any()]
        hz_rows = [b.z for b in self.bands if b.z.any()]
        hx = f2.block_compose([[m] for m in hx_rows]) if hx_rows else f2.zeros(0, self.n)
        hz = f2.block_compose([[m] for m in hz_rows]) if hz_rows else f2.zeros(0, self.n)
        return CssCode(hx, hz, hsx=self.hsx, hsz=self.hsz, metadata=meta)

    def block_map(self) -> list[dict]:
        """Band-by-band label grid for manifests."""
        return [{"rows": b.rows, "x": list(b.x_labels), "z": list(b.z_labels)}
                for b in self.bands]

    def check_count(self) -> int:
        """Number of measured stabilizers."""
        return self.css.stab_x.shape[0]

    def validate(self) -> None:
        css.validate_css(self.css)

    def logical_count(self) -> int:
        return css.logical_count(self.css)

    def distance(self, max_weight: int, k: int | None = None):
        return code_distance(self.css, max_weight, k)

    def params(self, max_weight: int):
        """(n, k, d-or-flag) of the CssCode view."""
        k = self.logical_count()
        return self.n, k, self.distance(max_weight, k)

    def copy(self) -> "BlockTaggedCss":
        return BlockTaggedCss(self.family, [b.copy() for b in self.bands],
                              self.col_sizes, hsx=self.hsx, hsz=self.hsz,
                              metadata=dict(self.metadata))

    def __repr__(self):
        return (f"<BlockTaggedCss {self.family} n={self.n} "
                f"bands={[b.rows for b in self.bands]} cols={self.col_sizes}>")


@dataclass
class SehgpBundle:
    """A product complex together with its tagged stabilizer code.

    Attributes:
        q: The underlying chain complex (length 4 for SEHGP, 2 for SSH).
        tagged: Banded stabilizer view.
        base: Input classical codes.
        j, k: The two length-2 factor complexes (SEHGP only).
    """

    q: ChainComplex
    tagged: BlockTaggedCss
    base: tuple
    j: ChainComplex | None = None
    k: ChainComplex | None = None

    @property
    def css(self) -> CssCode:
        return self.tagged.css


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


def _bands_from_boundaries(q: ChainComplex, deg_hi: int, deg_mid: int,
                           deg_lo: int, jname: str, kname: str):
    """Split d_{deg_hi}^T (Z bands) and d_{deg_lo+1} (X bands) of a product
    complex by its component bookkeeping, with labels."""
    col_comps = q.components[deg_mid]
    col_sizes = [s for _, _, s in col_comps]
    n = sum(col_sizes)
    offs = np.cumsum([0] + col_sizes)

    def block_label(src, dst, transposed):
        (i, j), (a, b) = src, dst
        if (a, b) == (i - 1, j):
            return f"d{i}T[{jname}]@I" if transposed else f"d{i}[{jname}]@I"
        if (a, b) == (i, j - 1):
            return f"I@d{j}T[{kname}]" if transposed else f"I@d{j}[{kname}]"
        return "0"

    z_bands = []
    dhi_t = q.boundary(deg_hi).T
    r0 = 0
    for (i, j, size) in q.components[deg_hi]:
        m = dhi_t[r0:r0 + size]
        labels = [block_label((i, j), (a, b), True) for a, b, _ in col_comps]
        z_bands.append((m, labels))
        r0 += size
    x_bands = []
    dlo = q.boundary(deg_mid)
    r0 = 0
    for (i, j, size) in q.components[deg_lo]:
        m = dlo[r0:r0 + size]
        # x band rows are degree deg_lo components; the block into column
        # (a, b) is the boundary component mapping (a, b) down to (i, j)
        labels = []
        for a, b, _ in col_comps:
            if (a - 1, b) == (i, j):
                labels.append(f"d{a}[{jname}]@I")
            elif (a, b - 1) == (i, j):
                labels.append(f"I@d{b}[{kname}]")
            else:
                labels.append("0")
        x_bands.append((m, labels))
        r0 += size
    zero_labels = ["0"] * len(col_comps)
    bands = [Band(f2.zeros(m.shape[0], n), m, list(zero_labels), labels)
             for m, labels in z_bands]
    bands += [Band(m, f2.zeros(m.shape[0], n), labels, list(zero_labels))
              for m, labels in x_bands]
    return bands, col_sizes


def sehgp(x: ClassicalCode, y: ClassicalCode, z: ClassicalCode,
          w: ClassicalCode) -> SehgpBundle:
    """Four classical codes -> length-4 product complex -> stabilizer code.

    Qubits sit at degree 2; hz rows come from d3^T (two bands), hx rows
    from d2 (two bands).  With four identical closed-loop repetition
    inputs the counts are 6n^4 qubits, 8n^4 checks, 6k^4 logicals.
    """
    jc = j_complex(x, y)
    kc = j_complex(z, w)
    q = tensor(jc, kc)
    q.validate()
    bands, col_sizes = _bands_from_boundaries(q, 3, 2, 1, "J", "K")
    premise = all(identical_code_premise(c) for c in (x, y, z, w))
    meta = {
        "base": [c.name or f"code{idx}" for idx, c in enumerate((x, y, z, w))],
        "identical_code_premise": premise,
    }
    if not premise:
        meta["warning"] = "identical-code premise violated; closed-form parameter identities not guaranteed"
    tagged = BlockTaggedCss("SEHGP", bands, col_sizes, metadata=meta)
    return SehgpBundle(q=q, tagged=tagged, base=(x, y, z, w), j=jc, k=kc)


def cphr(c: BlockTaggedCss, kind: str, row_bands: tuple[int, int],
         col_band: int, validate: bool = True) -> BlockTaggedCss:
    """Swap the X- and Z-parts of one column block in the named row bands.

    The swap is a Hadamard rotation of the column block's qubits only when
    every band with support there is rotated together.  A swap touching a
    strict subset of those bands generally anticommutes with the untouched
    bands and is rejected; callers composing complementary swaps (as bsh
    does) can defer the check to the composite with validate=False.

    Args:
        c: Input tagged code.
        kind: 'T1' or 'T2' (recorded in the swap history; the mechanics
            are identical, the names refer to the two standard band pairs).
        row_bands: 1-based band indices to rotate.
        col_band: 1-based qubit column block.
        validate: Re-verify commutation of the result (default True).

    Returns:
        A new tagged code without syndrome checks (a rotation invalidates
        them; callers attach new ones); the input is untouched.  Applying
        the same swap twice restores the input's bands bit-exactly.

    Raises:
        css.CommutationBrokenError: if the rotated stabilizers anticommute.
    """
    if kind not in ("T1", "T2"):
        raise ValueError("kind must be 'T1' or 'T2'")
    out = c.copy()
    out.hsx = out.hsz = None
    offs = out.col_offsets
    j = col_band - 1
    if not 0 <= j < len(out.col_sizes):
        raise IndexError(f"no column block {col_band}")
    sl = slice(offs[j], offs[j + 1])
    for bi in row_bands:
        band = out.bands[bi - 1]
        band.x[:, sl], band.z[:, sl] = band.z[:, sl].copy(), band.x[:, sl].copy()
        band.x_labels[j], band.z_labels[j] = band.z_labels[j], band.x_labels[j]
    if validate:
        out.validate()
    history = list(out.metadata.get("swaps", []))
    history.append({"kind": kind, "row_bands": list(row_bands), "col_band": col_band})
    out.metadata["swaps"] = history
    return out


def bsh(bundle: SehgpBundle) -> BlockTaggedCss:
    """Bias-tailored code: both CPHR swaps on the middle qubit block, plus
    the three-band disjoint syndrome-check matrices.

    The T2 swap rotates bands 2 and 3, the T1 swap bands 1 and 4, all in
    the big middle column block.  Each syndrome-check band is the next
    boundary map of the product complex whose image the corresponding
    syndrome band lies in, so the annihilation identities hold exactly
    (validate() checks them).
    """
    # the two swaps jointly rotate every band's middle block; only the
    # composite is a qubit-local basis change, so validation waits for it
    c = cphr(bundle.tagged, "T2", (2, 3), 2, validate=False)
    c = cphr(c, "T1", (1, 4), 2)
    c.family = "BSH"
    jc, kc = bundle.j, bundle.k
    d1j, d2j = jc.boundary(1), jc.boundary(2)
    d1k, d2k = kc.boundary(1), kc.boundary(2)
    ij0, ij1, ij2 = (f2.identity(jc.dim(0)), f2.identity(jc.dim(1)),
                     f2.identity(jc.dim(2)))
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
    c.hsx, c.hsz = hsx, hsz
    c.metadata["syndrome_checks_exact"] = True
    c.metadata["hsx_labels"] = [
        ["I@d2T[K]", "d2T[J]@I", "0", "0"],
        ["0", "0", "I@d1[K]", "0"],
        ["0", "0", "0", "d1[J]@I"],
    ]
    c.metadata["hsz_labels"] = [
        ["I@d2T[K]", "0", "0", "0"],
        ["0", "d2T[J]@I", "0", "0"],
        ["0", "0", "I@d1[K]", "d1[J]@I"],
    ]
    ds_x, ds_z = (classical.SupportMatcher.for_columns(h).least_weight(4)
                  for h in (hsx, hsz))
    vals = [d for d in (ds_x, ds_z) if not isinstance(d, LowerBound)]
    c.metadata["d_s"] = min(vals) if vals else ds_x
    return c


def ssh(base: ClassicalCode) -> SehgpBundle:
    """Slimmed product code on 5n^4 qubits from a single base code.

    Forms the length-2 product complex J of the base with itself, then the
    hypergraph product of the two derived check matrices d2[J] and d1^T[J].
    Column blocks are ordered (check-check 4n^4, bit-bit n^4) to match the
    printed two-band layout.
    """
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
    premise = identical_code_premise(base)
    meta = {"base": [base.name or "base"], "identical_code_premise": premise}
    if not premise:
        meta["warning"] = "identical-code premise violated; closed-form parameter identities not guaranteed"
    tagged = BlockTaggedCss("SSH", bands, col_sizes, metadata=meta)
    c = tagged.css
    q = ChainComplex([c.hz.T.copy(), c.hx])
    q.validate()
    return SehgpBundle(q=q, tagged=tagged, base=(base,), j=jc, k=None)


def bssh(base: ClassicalCode) -> BlockTaggedCss:
    """T2-rotated slim product code with the two-copy syndrome checks.

    The attached hsx/hsz follow the printed diag / anti-diag two-block
    patterns.  The underlying length-2 complex has no higher boundary, so
    only one block of each pattern annihilates its band exactly; the
    per-block outcome is recorded in metadata and validation relaxes the
    annihilation requirement accordingly.
    """
    bundle = ssh(base)
    c = cphr(bundle.tagged, "T2", (1, 2), 2)
    c.family = "BSSH"
    jc = bundle.j
    d1j, d2j = jc.boundary(1), jc.boundary(2)
    i_n = f2.identity(jc.dim(2))
    hs_block = f2.kron(i_n, d2j.T)
    band_rows = [b.rows for b in c.bands]
    c.hsx = f2.block_compose([
        [f2.zeros(hs_block.shape[0], band_rows[0]), hs_block],
        [hs_block, f2.zeros(hs_block.shape[0], band_rows[1])],
    ])
    hsz_block = f2.kron(d1j, i_n)
    c.hsz = f2.block_compose([
        [hsz_block, f2.zeros(hsz_block.shape[0], band_rows[1])],
        [f2.zeros(hsz_block.shape[0], band_rows[0]), hsz_block],
    ])
    exact_x = not f2.mat_mul(c.hsx, c.stab_x).any()
    exact_z = not f2.mat_mul(c.hsz, c.stab_z).any()
    c.metadata["syndrome_checks_exact"] = bool(exact_x and exact_z)
    c.metadata["syndrome_check_annihilation"] = {"hsx": bool(exact_x), "hsz": bool(exact_z)}
    c.metadata["hsx_labels"] = [["0", "I@d2T[J]"], ["I@d2T[J]", "0"]]
    c.metadata["hsz_labels"] = [["d1[J]@I", "0"], ["0", "d1[J]@I"]]
    c.metadata["d_s"] = classical.SupportMatcher.for_columns(
        c.hsz).least_weight(4)
    return c


def rsh(bundle: SehgpBundle, which: int) -> BlockTaggedCss:
    """Two-band truncation of the four-band code to 5n^4 qubits.

    which=1 keeps the (bit-bit, middle) qubit blocks with the X band
    [I@d2[K], d1[J]@I] and Z band [d1T[J]@I, I@d2T[K]]; which=2 keeps the
    (middle, check-check) blocks with the mirrored bands.  Syndrome checks
    have no closed form; they are the canonical row-space complements of
    the column spaces, so H_RS @ H_RSH = 0 with the rank identity
    rank(H_RSH) + rows(H_RS) = band rows.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    src = bundle.tagged
    offs = src.col_offsets
    if which == 1:
        cols = slice(offs[0], offs[2])
        col_sizes = src.col_sizes[:2]
        zband, xband = src.bands[1], src.bands[2]
        zlabels, xlabels = zband.z_labels[:2], xband.x_labels[:2]
    else:
        cols = slice(offs[1], offs[3])
        col_sizes = src.col_sizes[1:]
        zband, xband = src.bands[0], src.bands[3]
        zlabels, xlabels = zband.z_labels[1:], xband.x_labels[1:]
    hz = zband.z[:, cols].copy()
    hx = xband.x[:, cols].copy()
    n = sum(col_sizes)
    bands = [
        Band(f2.zeros(hz.shape[0], n), hz, ["0", "0"], list(zlabels)),
        Band(hx, f2.zeros(hx.shape[0], n), list(xlabels), ["0", "0"]),
    ]
    hsx = f2.kernel_basis(hx.T)
    hsz = f2.kernel_basis(hz.T)
    meta = dict(src.metadata)
    meta.pop("swaps", None)
    meta["syndrome_checks_exact"] = True
    meta["syndrome_checks_numeric"] = True
    tagged = BlockTaggedCss(f"RSH{which}", bands, col_sizes,
                            hsx=hsx, hsz=hsz, metadata=meta)
    tagged.validate()
    return tagged


def brsh(bundle: SehgpBundle, which: int) -> BlockTaggedCss:
    """T2 rotation of the truncated code on its big middle column block."""
    c = rsh(bundle, which)
    big = 2 if which == 1 else 1
    out = cphr(c, "T2", (1, 2), big)
    out.family = f"BRSH{which}"
    out.hsx = f2.kernel_basis(out.stab_x.T)
    out.hsz = f2.kernel_basis(out.stab_z.T)
    out.metadata["syndrome_checks_numeric"] = True
    return out


def xzzx3d(n: int) -> BlockTaggedCss:
    """Three-dimensional XZZX-type code: the rotated slim product of a
    closed-loop repetition ring, relabeled.  Bit-exactly equal to
    bssh(repetition_closed_loop(n)).

    Raises:
        ValueError: if n < 2.
    """
    if n < 2:
        raise ValueError("xzzx3d needs n >= 2")
    c = bssh(classical.repetition_closed_loop(n))
    c.family = "XZZX3D"
    return c


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
