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
from .spectra import cluster_spectrum, eigen_sym, in_pattern, pattern_matrix


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


def section12_factor(s: int, m: int) -> GramFactor:
    """Paired-column seed, the duplication chain's last resort and the
    general upper bound's witness: blocks all (0,1) except block m,
    which is (0,0,1).  Columns pair greedily; each pair's two tails solve
    the equal-norm equations, giving eigenvalue 3 per ordinary pair and
    eigenvalue 1 from the middle pair, so q is at most 3 plus the number of
    unpaired-or-pair leftovers, within floor((s+9)/2) for every parity.
    Every isolated diagonal entry (1 or 3) is an eigenvalue, so all zero
    blocks may be grown by duplication.  expected_spectrum is the clustered
    spectrum of the (s+1) x (s+1) cogram M^T M plus n-s-1 zeros, which is
    Spec(M M^T) without solving the n x n gram.  Chain step labels name the
    factor by its construction_id, "ub_case1", though construct_library
    does not build it.
    """
    if s < 2 or not (1 <= m <= s):
        raise BadParams("need s >= 2 and 1 <= m <= s")
    p1 = m - 1
    cols = s + 1
    mid = p1 + 1  # the one column with no dominating run ending at it

    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    i = 1
    while i < mid:
        if i + 1 < mid:
            pairs.append((i, i + 1))
            i += 2
        else:
            unpaired.append(i)
            i += 1
    mid_pair = (mid, mid + 1)
    pairs.append(mid_pair)
    i = mid + 2
    while i <= cols:
        if i + 1 <= cols:
            pairs.append((i, i + 1))
            i += 2
        else:
            unpaired.append(i)
            i += 1

    sigma = {}
    for a, b in pairs:
        if (a, b) == mid_pair:
            sigma[b] = 1.0
        else:
            sigma[a] = 1.0
            sigma[b] = 2.0
    for a in unpaired:
        sigma[a] = 1.0

    def run_end(i):  # column where dominating run i stops
        if i <= p1:
            return i
        if i == p1 + 1:
            return p1 + 2
        return i + 1

    D = np.zeros((s, cols))
    for i in range(1, s + 1):
        ci = run_end(i)
        D[i - 1, :ci] = 1.0
        D[i - 1, ci - 1] = sigma[ci]
    norms = (D * D).sum(axis=0)
    B = D.T @ D
    f2 = np.ones(cols)
    for a, b in pairs:
        d = B[a - 1, b - 1]
        cc = d + (1.0 if (a, b) == mid_pair else 3.0)
        f2[a - 1] = cc - norms[a - 1]
        f2[b - 1] = cc - norms[b - 1]
    if not (f2 > 1e-9).all():
        raise BadParams("tail equations degenerate")

    bits: list[int] = []
    zcols: list[int] = []
    col = 1
    for j in range(1, s + 1):
        for _ in range(2 if j == m else 1):
            bits.append(0)
            zcols.append(col)
            col += 1
        bits.append(1)
    n = len(bits)
    M = np.zeros((n, cols))
    di = zi = 0
    slots = []
    for pos, b in enumerate(bits):
        if b:
            M[pos] = D[di]
            di += 1
        else:
            c = zcols[zi]
            M[pos, c - 1] = math.sqrt(f2[c - 1])
            slots.append((pos, float(f2[c - 1])))
            zi += 1
    spec = cluster_spectrum(np.concatenate((eigen_sym(M.T @ M), np.zeros(n - cols))))
    return GramFactor(
        _frozen(M),
        build_graph(CreationSequence(tuple(bits))),
        "ub_case1",
        {"s": s, "m": m, "p1": p1, "p2": s - m},
        expected_spectrum=spec.distinct,
        dup_slots=tuple(slots),
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


def _rotate_in_place(buf: np.ndarray, n: int, v: int, lam: float, theta: float) -> None:
    """Rotate the leading n x n block of buf, bordered by [lam], in the
    (v, n) coordinate plane by theta, in place.

    Only row and column v, row and column n and the 2 x 2 block they share
    change, so they are written directly: c a_v, -s a_v and the rotated
    block [[a, 0], [0, lam]].  Row and column are written from the same
    values, so the result is as symmetric as the block.
    """
    c, s = math.cos(theta), math.sin(theta)
    row = buf[v, :n].copy()
    a = float(row[v])
    buf[v, :n] = buf[:n, v] = c * row
    buf[n, :n] = buf[:n, n] = -s * row
    buf[v, v] = c * c * a + s * s * lam
    buf[n, n] = s * s * a + c * c * lam
    buf[v, n] = buf[n, v] = s * c * (lam - a)


# A step's checks compare within DUP_TOL * max(1, max|A|).
DUP_TOL = 1e-8


def _check_angle(theta: float) -> None:
    if not 0 < theta < math.pi / 2:
        raise BadAngle("theta must lie strictly between 0 and pi/2")


def dup_in_place(buf: np.ndarray, n: int, v: int, lam: float, spectrum,
                 theta: float = math.pi / 4) -> None:
    """dup_realization of the leading n x n block A of buf, written into
    buf's leading (n+1) x (n+1) block: the same checks against A and
    `spectrum`, then the rotation, touching nothing past row/column n."""
    _check_angle(theta)
    A = buf[:n, :n]
    scale = max(1.0, float(np.abs(A).max()))
    if abs(A[v, v] - lam) > DUP_TOL * scale:
        raise DiagonalNotEigenvalue(f"a_vv = {A[v, v]} != {lam}")
    if float(np.min(np.abs(np.asarray(spectrum) - lam))) > DUP_TOL * scale:
        raise DiagonalNotEigenvalue(f"{lam} is not an eigenvalue")
    _rotate_in_place(buf, n, v, lam, theta)


def jdup_in_place(buf: np.ndarray, n: int, v: int, spectrum,
                  theta: float = math.pi / 4) -> float:
    """jdup_realization of the leading n x n block A of buf, written into
    buf's leading (n+1) x (n+1) block; returns the appended eigenvalue
    lambda_min of `spectrum`."""
    _check_angle(theta)
    A = buf[:n, :n]
    lam_min = float(np.min(spectrum))
    scale = max(1.0, float(np.abs(A).max()))
    if abs(A[v, v] - lam_min) <= DUP_TOL * scale:
        raise DegenerateRow("a_vv equals the smallest eigenvalue; joined copy would vanish")
    _rotate_in_place(buf, n, v, lam_min, theta)
    return lam_min


def _bordered(A) -> tuple[np.ndarray, int]:
    """A copied into the leading block of an (n+1) x (n+1) buffer."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    buf = np.empty((n + 1, n + 1))
    buf[:n, :n] = A
    return buf, n


def dup_realization(A: np.ndarray, v: int, lam: float, spectrum,
                    theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A without an edge: requires a_vv = lam and lam
    in `spectrum`, the eigenvalues A is known to have (a standalone caller
    passes eigen_sym(A); a chain carries them, so no step eigensolves).
    The result has that spectrum plus one extra lam, the new vertex
    adjacent exactly to N(v), and a zero (v, new) entry."""
    buf, n = _bordered(A)
    dup_in_place(buf, n, v, lam, spectrum, theta)
    return buf


def jdup_realization(A: np.ndarray, v: int, spectrum,
                     theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A with an edge to the copy, appending one more
    copy of the smallest eigenvalue lambda_min of `spectrum`, the
    eigenvalues A is known to have (a standalone caller passes
    eigen_sym(A)), so q is preserved.

    Realized as the (v, new)-plane rotation of A + [lambda_min]; the new
    off-diagonal entry is sin(theta)cos(theta)(lambda_min - a_vv), hence the
    requirement a_vv != lambda_min.  Deleting the new row and column gives
    A with row/column v scaled by cos(theta) (pattern-equal to A), and the
    (v, v) entry equal to cos^2 a_vv + sin^2 lambda_min.
    """
    buf, n = _bordered(A)
    jdup_in_place(buf, n, v, spectrum, theta)
    return buf


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
    for a in range(T * (T - 1) // 2 + 1):
        BD = B.copy()
        BD[:, 0] *= math.sqrt(1.0 + a)
        Gd = BD @ BD.T
        off = np.abs(Gd[~np.eye(T, dtype=bool)])
        if off.min() > 1e-6 * max(1.0, float(np.abs(Gd).max())):
            return BD
    raise InfeasibleRepair("no diagonal rescaling repaired the dominating products")


def _certificate_factor(B: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    BD = _repair_scales(np.asarray(B, dtype=float))
    norms = (BD * BD).sum(axis=0)
    C2 = float(norms.max()) + 1.0
    y = np.sqrt(C2 - norms)
    dom, iso = G.dominating, G.isolated
    M = np.zeros((G.n, len(iso)))
    for r, i in enumerate(dom):
        M[i] = BD[r]
    for c, i in enumerate(iso):
        M[i, c] = y[c]
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
    A = (A + A.T) / 2
    if not in_pattern(A, G):
        raise InfeasibleRepair("certificate left the pattern")  # pragma: no cover
    return A
