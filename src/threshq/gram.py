"""Vertex-clique incidence factors and spectrum-preserving duplications.

A factor M has rows indexed by vertices and columns by the cliques of an
edge clique cover; arranging the entries so that row inner products are
nonzero exactly on edges puts M M^T in S(G), and the nonzero spectrum of
M M^T equals that of the small cogram M^T M.  The catalog below collects
the explicit factors used by the classification engine, each stored with
rows already permuted into creation order of its target graph (raw-pattern
targets keep their printed row order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orthosearch import SupportPattern, verify_feasible
from .sequences import CreationSequence, ThresholdGraph, build_graph, graph_from_text
from .spectra import NoConvergence, cluster_spectrum, eigen_sym, pattern_matrix, pattern_report


class BadParams(ValueError):
    pass


class DiagonalNotEigenvalue(ValueError):
    pass


class BadAngle(ValueError):
    pass


class DegenerateRow(ValueError):
    pass


class InfeasibleRepair(RuntimeError):
    pass


@dataclass(frozen=True)
class GramFactor:
    """Rectangular factor with its target pattern and catalog metadata.

    expected_spectrum lists the distinct eigenvalues of M M^T with their
    multiplicities; every catalog factor and every section12_factor seed
    has one, so a chain starts from a known spectrum.  dup_slots lists
    (vertex, eigenvalue) pairs valid for dup_realization; the chain planner
    grows a zero-run from the first slot listed inside it.
    """

    M: np.ndarray
    target: object  # ThresholdGraph or raw boolean adjacency
    construction_id: str
    params: dict = field(default_factory=dict)
    expected_spectrum: tuple[tuple[float, int], ...] | None = None
    dup_slots: tuple[tuple[int, float], ...] = ()

    @property
    def n(self) -> int:
        return self.M.shape[0]


def gram(f: GramFactor) -> np.ndarray:
    return f.M @ f.M.T


def cogram(f: GramFactor) -> np.ndarray:
    return f.M.T @ f.M


def _frozen(M) -> np.ndarray:
    A = np.array(M, dtype=float)
    A.setflags(write=False)
    return A


# ---------------------------------------------------------------------------
# catalog constructions
# ---------------------------------------------------------------------------


def _star(k: int) -> GramFactor:
    """Star K_(1,k), target 0^k 1: k leaf rows e_i, then the centre's
    all-ones row.  The cogram is I + J, so the spectrum is 0, 1^(k-1), k+1
    (no 1 when k = 1)."""
    if k < 1:
        raise BadParams("star needs k >= 1")
    M = np.vstack((np.eye(k), np.ones(k)))
    spec = ((0.0, 1), (1.0, k - 1), (float(k + 1), 1))
    return GramFactor(_frozen(M), build_graph(CreationSequence((0,) * k + (1,))), "star",
                      {"k": k}, expected_spectrum=tuple((v, m) for v, m in spec if m))


def _thm00(t: int) -> GramFactor:
    """Alternating sequence (0,1)^t: cogram is (t^2-t+1) I + t J."""
    if t < 2:
        raise BadParams("thm00 needs t >= 2")
    M = np.zeros((2 * t, t))
    M[0, 0] = math.sqrt(t * t - t + 1)
    M[1, 0] = 1.0
    for r in range(2, t + 1):  # dominating rows: ones then the run index
        M[r, : r - 1] = 1.0
        M[r, r - 1] = r
    for i in range(2, t):  # isolated tails chosen to equalize column norms
        M[t + i - 1, i - 1] = math.sqrt(t * t + 1 - i * i - (t - i))
    M[2 * t - 1, t - 1] = 1.0
    perm = [0] * (2 * t)
    for i in range(1, t + 1):
        perm[2 * i - 1] = i
    for i in range(2, t + 1):
        perm[2 * i - 2] = t + i - 1
    M = M[perm]
    lam = float(t * t - t + 1)
    spec = ((0.0, t), (lam, t - 1), (float(2 * t * t - t + 1), 1))
    return GramFactor(
        _frozen(M),
        build_graph(CreationSequence((0, 1) * t)),
        "thm00",
        {"t": t},
        expected_spectrum=spec,
        dup_slots=((0, lam),),
    )


def _fixed(cid, rows, perm, bits, spec, dup_slots=()):
    M = np.array(rows, dtype=float)[perm]
    return GramFactor(_frozen(M), graph_from_text(bits), cid,
                      expected_spectrum=spec, dup_slots=dup_slots)


R2 = math.sqrt(2)
R3 = math.sqrt(3)
R7 = math.sqrt(7)
R8 = math.sqrt(8)


def _thm061() -> GramFactor:
    rows = [[1, 0], [1, 0], [1, 1], [0, R2]]
    return _fixed("thm061", rows, [0, 1, 3, 2], "0101",
                  ((0.0, 2), (2.0, 1), (4.0, 1)), dup_slots=((2, 2.0),))


def _thm01() -> GramFactor:
    rows = [[3, 0, 0], [1, -3, 0], [1, 1, -2], [0, 1, 0], [0, 0, R7]]
    return _fixed("thm01", rows, [0, 3, 1, 4, 2], "00101",
                  ((0.0, 2), (7.0, 1), (13.0, 2)), dup_slots=((3, 7.0),))


def _thm10() -> GramFactor:
    rows = [[1, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0], [0, 0, 1]]
    return _fixed("thm10", rows, [0, 1, 3, 4, 2], "01001",
                  ((0.0, 2), (1.0, 1), (3 - R2, 1), (3 + R2, 1)),
                  dup_slots=((0, 1.0), (3, 1.0), (2, 1.0)))


def _thm05() -> GramFactor:
    rows = [[R7, 0, 0], [R2, 0, 0], [1, -3, 0], [1, 1, -2], [0, 1, 0], [0, 0, R7]]
    return _fixed("thm05", rows, [0, 1, 4, 2, 5, 3], "010101",
                  ((0.0, 3), (7.0, 1), (13.0, 2)), dup_slots=((0, 7.0), (4, 7.0)))


def _thm06() -> GramFactor:
    rows = [[R2, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 2], [0, R3, 0], [0, 0, 1]]
    # cogram is 3I + 2J on three points: eigenvalues 9 and 3 (twice)
    return _fixed("thm06", rows, [0, 1, 4, 2, 5, 3], "010101",
                  ((0.0, 3), (3.0, 2), (9.0, 1)), dup_slots=((2, 3.0),))


def _qlt4() -> GramFactor:
    rows = [[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1],
            [0, R2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return _fixed("qlt4", rows, [0, 1, 4, 2, 5, 6, 3], "0101001",
                  ((0.0, 3), (1.0, 1), (2.0, 2), (7.0, 1)),
                  dup_slots=((0, 1.0), (2, 2.0), (5, 1.0), (4, 1.0)))


def _prop_a15a19() -> GramFactor:
    rows = [
        [R8, 0, 0, 0, 0],
        [1, -R2, 0, 0, 0],
        [R2, 1, 0, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, R3, 0, 0],
        [0, 0, 0, R3, 0],
        [0, 1, 1, 1, 2],
        [0, 0, 0, 0, 1],
    ]
    M = np.array(rows, dtype=float)
    target = pattern_matrix(M @ M.T)  # raw pattern; embeds in two order-8 graphs
    target.setflags(write=False)
    return GramFactor(
        _frozen(M), target, "prop_a15a19", {},
        expected_spectrum=((0.0, 3), (3.0, 3), (11.0, 2)),
    )


def _paired_columns(s: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The paired-column seed of block count s whose block m is the
    (0, 0, 1) one: its s x (s+1) dominating rows D and its squared tails
    f2, one per column.  Columns are 0-based here; the middle column is
    m - 1.

    Run i ends at column i before the middle column and at column i + 1
    from it on, so the middle column ends none.  Columns pair greedily on
    each side of the middle pair (m - 1, m).  A run's row is ones up to
    its end column, and ends in a 2 when that column is the second of an
    ordinary pair.  Each column c also has a tail, one isolated row whose
    only entry sits in column c.  The equal-norm equations of a pair
    (a, b), |D_a|^2 + f2_a = |D_b|^2 + f2_b = D_a . D_b + 3 (+ 1 in the
    middle pair), solve to f2 = 3 in the first column of an ordinary pair
    and 1 everywhere else, which is also an unpaired column's tail.  So
    each ordinary pair gives eigenvalue 3 (eigenvector e_a - e_b) and the
    middle pair, whose two columns of D are equal, eigenvalue 1.
    """
    if s < 2 or not (1 <= m <= s):
        raise BadParams("need s >= 2 and 1 <= m <= s")
    left, right = range(0, m - 2, 2), range(m + 1, s, 2)
    ends = np.arange(s)
    ends[m - 1:] += 1
    D = (np.arange(s + 1) <= ends[:, None]).astype(float)
    # the run ending at the second column a + 1 of pair (a, a + 1) is run
    # a + 1 left of the middle pair and run a right of it
    D[[a + 1 for a in left] + list(right), [a + 1 for a in (*left, *right)]] = 2.0
    f2 = np.ones(s + 1)
    f2[[*left, *right]] = 3.0
    return D, f2


def section12_factor(s: int, m: int) -> GramFactor:
    """Paired-column seed, the duplication chain's last resort and the
    general upper bound's witness: blocks all (0,1) except block m,
    which is (0,0,1).  Its rows are `_paired_columns`'s, placed in creation
    order by index arrays: run j's dominating row follows its zeros, and
    the zeros take the columns' tails in column order.  q is at most 3
    plus the number of unpaired-or-pair leftovers, within floor((s+9)/2)
    for every parity.  Every isolated diagonal entry (1 or 3) is an
    eigenvalue, so all zero blocks may be grown by duplication.
    expected_spectrum is the clustered spectrum of the (s+1) x (s+1)
    cogram M^T M plus n-s-1 zeros, which is Spec(M M^T) without solving the
    n x n gram; its length is the seed's q, which the chain planner compares
    across sources.  Chain step labels name the factor by its
    construction_id, "ub_case1", though construct_library does not build
    it.
    """
    D, f2 = _paired_columns(s, m)
    bits = (0, 1) * (m - 1) + (0, 0, 1) + (0, 1) * (s - m)
    isolated = [i for i, b in enumerate(bits) if not b]
    cols, n = s + 1, len(bits)
    M = np.zeros((n, cols))
    M[[i for i, b in enumerate(bits) if b]] = D
    M[isolated, range(cols)] = np.sqrt(f2)
    spec = cluster_spectrum(np.concatenate((eigen_sym(M.T @ M), np.zeros(n - cols))))
    return GramFactor(
        _frozen(M),
        build_graph(CreationSequence(bits)),
        "ub_case1",
        {"s": s, "m": m, "p1": m - 1, "p2": s - m},
        expected_spectrum=spec.distinct,
        dup_slots=tuple(zip(isolated, f2.tolist())),
    )


CONSTRUCTIONS = {
    "star": _star,
    "thm00": _thm00,
    "thm061": _thm061,
    "thm01": _thm01,
    "thm10": _thm10,
    "thm05": _thm05,
    "thm06": _thm06,
    "qlt4": _qlt4,
    "prop_a15a19": _prop_a15a19,
}


def construct_library(construction_id: str, **params) -> GramFactor:
    """Build a catalog factor by id; BadParams on invalid id or parameters."""
    try:
        builder = CONSTRUCTIONS[construction_id]
    except KeyError:
        raise BadParams(f"unknown construction {construction_id!r}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise BadParams(f"{construction_id}: {exc}") from None


# ---------------------------------------------------------------------------
# spectrum-controlled duplication
# ---------------------------------------------------------------------------


# A step's checks compare within DUP_TOL * max(1, max|A|).
DUP_TOL = 1e-8


def _check_angle(theta: float) -> None:
    if not 0 < theta < math.pi / 2:
        raise BadAngle("theta must lie strictly between 0 and pi/2")


class ChainGrower:
    """A symmetric matrix grown in place by dup and jdup steps, with the
    spectrum it is known to have.

    The buffer holds the seed A and room for `steps` more rows and columns;
    `n` is the order of its active leading block.  Each step rotates that
    block, bordered by one eigenvalue lam, in the (v, n) plane by theta, so
    it writes only row and column v, row and column n and the entries they
    share: c a_v, -s a_v and the rotated block [[a_vv, 0], [0, lam]].  Each
    entry is written to both triangles from one value, so the block stays
    as symmetric as the seed.  `spectrum` lists the carried eigenvalues,
    the seed's first and then lam per step; the grower also keeps their
    distinct values and their minimum, so no step scans it.

    A step's check compares a gap with DUP_TOL * scale, scale =
    max(1, max|A|) over the active block.  That scale is bracketed with no
    pass over A: max(1, |a_vv|) <= scale <= max(1, U), where U bounds
    max|A|.  U starts at max|A_seed|; after each rotation it becomes
    max(U, the step's three new entries), because every other entry written
    is c or -s times an old one, with |c|, |s| <= 1, and only shrinks.
    Only when the gap lies between DUP_TOL times the two ends is the exact
    scale read off the buffer, and U set to it, so each check decides as a
    full read of A and the spectrum would.  A seed or spectrum with an
    entry that is not finite raises NoConvergence, and a dup's lam that is
    not finite DiagonalNotEigenvalue.
    """

    def __init__(self, A, spectrum, steps: int):
        A = np.asarray(A, dtype=float)
        spectrum = np.asarray(spectrum, dtype=float)
        self._bound = float(np.abs(A).max())
        if not (math.isfinite(self._bound) and np.isfinite(spectrum).all()):
            raise NoConvergence("seed or spectrum has an entry that is not finite")
        self.n = n = A.shape[0]
        self.buf = np.empty((n + steps, n + steps))
        self.buf[:n, :n] = A
        self.spectrum = spectrum.tolist()
        self._values = set(self.spectrum)
        self._min = min(self.spectrum)

    def _diagonal(self, v) -> float:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} is outside the active {self.n} x {self.n} block")
        return float(self.buf[v, v])

    def _scale(self, gap: float, a_vv: float) -> float:
        """max(1, max|A|) for the active block A, or a bracket end that lies
        on the same side of gap / DUP_TOL; the exact read happens only when
        neither end does."""
        hi = max(1.0, self._bound)
        if gap > DUP_TOL * hi:
            return hi
        lo = max(1.0, abs(a_vv))
        if gap <= DUP_TOL * lo:
            return lo
        self._bound = float(np.abs(self.buf[:self.n, :self.n]).max())
        return max(1.0, self._bound)

    def _rotate(self, v: int, a: float, lam: float, theta: float) -> None:
        buf, n = self.buf, self.n
        c, s = math.cos(theta), math.sin(theta)
        row = buf[v, :n]
        np.multiply(row, -s, out=buf[n, :n])
        row *= c
        buf[:n, v] = row
        buf[:n, n] = buf[n, :n]
        d_v = buf[v, v] = c * c * a + s * s * lam
        d_n = buf[n, n] = s * s * a + c * c * lam
        off = buf[v, n] = buf[n, v] = s * c * (lam - a)
        self._bound = max(self._bound, abs(d_v), abs(d_n), abs(off))
        self.spectrum.append(lam)
        self._values.add(lam)
        self._min = min(self._min, lam)
        self.n = n + 1

    def dup(self, v: int, lam: float, theta: float = math.pi / 4) -> None:
        """Duplicate vertex v without an edge, appending lam: lam must be
        finite, and a_vv must be lam and lam one of the carried eigenvalues,
        each within DUP_TOL * max(1, max|A|), else DiagonalNotEigenvalue."""
        _check_angle(theta)
        a = self._diagonal(v)
        lam = float(lam)
        gap = abs(a - lam)
        if not math.isfinite(lam) or gap > DUP_TOL * self._scale(gap, a):
            raise DiagonalNotEigenvalue(f"a_vv = {a} != {lam}")
        gap = 0.0 if lam in self._values else min(abs(x - lam) for x in self._values)
        if gap > DUP_TOL * self._scale(gap, a):
            raise DiagonalNotEigenvalue(f"{lam} is not an eigenvalue")
        self._rotate(v, a, lam, theta)

    def jdup(self, v: int, theta: float = math.pi / 4) -> float:
        """Duplicate vertex v with an edge to the copy, appending and
        returning the smallest carried eigenvalue lambda_min; DegenerateRow
        when a_vv is lambda_min within DUP_TOL * max(1, max|A|)."""
        _check_angle(theta)
        lam_min = self._min
        a = self._diagonal(v)
        gap = abs(a - lam_min)
        if gap <= DUP_TOL * self._scale(gap, a):
            raise DegenerateRow("a_vv equals the smallest eigenvalue; joined copy would vanish")
        self._rotate(v, a, lam_min, theta)
        return lam_min


def dup_realization(A: np.ndarray, v: int, lam: float, spectrum,
                    theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A without an edge: requires a_vv = lam and lam
    in `spectrum`, the eigenvalues A is known to have (a standalone caller
    passes eigen_sym(A); a chain carries them, so no step eigensolves).
    The result has that spectrum plus one extra lam, the new vertex
    adjacent exactly to N(v), and a zero (v, new) entry.  One ChainGrower
    step: the same checks and rotation as every chain step."""
    grower = ChainGrower(A, spectrum, 1)
    grower.dup(v, lam, theta)
    return grower.buf


def jdup_realization(A: np.ndarray, v: int, spectrum,
                     theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A with an edge to the copy, appending one more
    copy of the smallest eigenvalue lambda_min of `spectrum`, the
    eigenvalues A is known to have (a standalone caller passes
    eigen_sym(A)), so q is preserved.  One ChainGrower step.

    Realized as the (v, new)-plane rotation of A + [lambda_min]; the new
    off-diagonal entry is sin(theta)cos(theta)(lambda_min - a_vv), hence the
    requirement a_vv != lambda_min.  Deleting the new row and column gives
    A with row/column v scaled by cos(theta) (pattern-equal to A), and the
    (v, v) entry equal to cos^2 a_vv + sin^2 lambda_min.
    """
    grower = ChainGrower(A, spectrum, 1)
    grower.jdup(v, theta)
    return grower.buf


# ---------------------------------------------------------------------------
# orthogonality certificates for q = 2
# ---------------------------------------------------------------------------


def _repair_scales(B: np.ndarray) -> np.ndarray:
    """Column rescaling making every dominating pair product nonzero.

    Scaling columns keeps them orthogonal.  Column 0 (the first vertex of
    the creation sequence) meets every dominating row, so scaling it by
    sqrt(1 + a) turns the product of rows p, q into alpha + a c with
    c = B[p, 0] B[q, 0] != 0: it vanishes for at most one a.  Of the
    T(T-1)/2 + 1 values a = 0, 1, ... one therefore repairs every pair;
    InfeasibleRepair is raised only if rounding defeats them all.
    """
    T, k = B.shape
    if T <= 1:
        return B
    off = ~np.eye(T, dtype=bool)
    for a in range(T * (T - 1) // 2 + 1):
        BD = B.copy()
        BD[:, 0] *= math.sqrt(1.0 + a)
        Gd = BD @ BD.T
        if np.abs(Gd[off]).min() > 1e-6 * max(1.0, float(np.abs(Gd).max())):
            return BD
    raise InfeasibleRepair("no diagonal rescaling repaired the dominating products")


def _certificate_factor(B: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    """The factor M with A = M M^T: the repaired block B on the dominating
    rows and, on isolated vertex c's row, the tail sqrt(C^2 - |column c|^2)
    in column c, so every column has squared norm C^2 = max |column|^2 + 1."""
    BD = _repair_scales(np.asarray(B, dtype=float))
    norms = (BD * BD).sum(axis=0)
    dom = np.array(G.creation.bits, dtype=bool)
    M = np.zeros((G.n, BD.shape[1]))
    M[dom] = BD
    M[~dom, np.arange(BD.shape[1])] = np.sqrt(float(norms.max()) + 1.0 - norms)
    return M


def orthogonal_certificate(B: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    """Two-eigenvalue realization of S(G) from a column-orthogonal
    dominating-by-isolated block B.

    B's support must match the dominating-by-isolated staircase of G and its
    columns must be pairwise orthogonal to 1e-8.  Column rescaling repairs
    zero dominating products, isolated tails equalize all column norms to a
    common C^2, and the returned Gram has spectrum {C^2 with multiplicity
    n-T, 0 with multiplicity T}.
    """
    B = np.asarray(B, dtype=float)
    if not verify_feasible(SupportPattern.from_graph(G), B, tol=1e-8):
        raise BadParams("block is not a column-orthogonal fill of the graph staircase")
    M = _certificate_factor(B, G)
    A = M @ M.T
    A = (A + A.T) / 2  # symmetric, and finite with B: the caller's eigensolve validates it
    if not pattern_report(A, G):
        raise InfeasibleRepair("certificate left the pattern")  # pragma: no cover
    return A
