"""Column-orthogonal completions, the strong spectral property, and a
low-q projection search.

The q=2 gate: a connected threshold graph has q(G)=2 iff some A in S(G)
has a column-orthogonal dominating-by-isolated submatrix.  Column supports
of that submatrix are nested suffixes of the dominating vertices, so
feasibility reduces to counting columns against suffix sizes; the
infeasibility witness is the counting argument itself (c columns whose
mutual overlaps live in r < c rows force a rank contradiction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sequences import ThresholdGraph
from .spectra import cluster_spectrum, eigen_sym, eigen_sym_vectors, in_pattern, pattern_matrix


# ---------------------------------------------------------------------------
# support patterns and the feasibility gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportPattern:
    """Dominating-by-isolated support of S(G): support[i, j] is True iff
    dominating vertex i (creation order) is adjacent to isolated vertex j."""

    support: np.ndarray

    @property
    def rows(self) -> int:
        return self.support.shape[0]

    @property
    def cols(self) -> int:
        return self.support.shape[1]

    @classmethod
    def from_graph(cls, G: ThresholdGraph) -> "SupportPattern":
        bits = np.array(G.creation.bits)
        dom, iso = np.flatnonzero(bits == 1), np.flatnonzero(bits == 0)
        S = np.greater.outer(dom, iso)  # covers the isolated vertices added before it
        S.setflags(write=False)
        return cls(S)

    def suffix_starts(self) -> list[int]:
        """First supported row per column; columns are suffix-supported,
        so the support must equal the staircase those starts draw."""
        starts = self.support.argmax(axis=0)
        staircase = np.arange(self.rows)[:, None] >= starts
        if not np.array_equal(self.support, staircase):
            raise ValueError("support is not a nested suffix staircase")
        return starts.tolist()


@dataclass(frozen=True)
class Feasible:
    """Column-orthogonal matrix with the exact support."""

    matrix: np.ndarray


@dataclass(frozen=True)
class Infeasible:
    """Counting witness: the listed columns pairwise overlap only inside
    `rows`, and each meets `rows`; len(columns) > len(rows) forces a
    dependence among orthogonal nonzero restrictions."""

    columns: tuple[int, ...]
    rows: tuple[int, ...]


def decide_column_orthogonal(P: SupportPattern):
    """Decide whether the staircase admits a column-orthogonal completion.

    Feasible(B): B has the exact support, unit columns, pairwise inner
    products below 1e-9.  Infeasible(witness): counting obstruction.  One
    of the two is returned for every staircase.
    """
    T = P.rows
    by_size: dict[int, list[int]] = {}
    for j, a in enumerate(P.suffix_starts()):
        by_size.setdefault(T - a, []).append(j)
    groups = sorted(by_size.items())  # column groups, smallest support first
    cum = 0
    for idx, (size, cols) in enumerate(groups):
        cum += len(cols)
        last = idx == len(groups) - 1
        if cum > size or (not last and cum == size):
            witness_cols: list[int] = []
            for sz, cs in groups[: idx + 1]:
                witness_cols += cs
            if cum <= size:  # equality with later groups: add one wider column
                witness_cols.append(groups[idx + 1][1][0])
            rows = tuple(range(T - size, T))
            return Infeasible(tuple(witness_cols), rows)
    return Feasible(_complete_orthogonal(groups, T))


_ENTRY_FLOOR = 1e-3  # smallest support entry a completion column should keep
_MIX_STEPS = 64


def _helmert(W: int, m: int) -> np.ndarray:
    """Unit reversed Helmert vector h_m of R^W: all ones for m = 1,
    otherwise -(m-1) on row W-m and 1 on the m-1 rows below it."""
    h = np.ones(W)
    if m > 1:
        h[: W - m] = 0.0
        h[W - m] = 1.0 - m
    return h / np.linalg.norm(h)


def _mix(H: np.ndarray, m: int) -> np.ndarray:
    """H's columns mixed by the reflection I - 2uu^T/u^Tu, u = (1..c) + a,
    for the first a = 1, 2, ... whose entries on the last m rows clear the
    floor (else the a whose smallest such entry is largest).  The
    reflection has no zero entry, so every column keeps a share of h_m."""
    best, best_low = H, -1.0
    for a in range(1, _MIX_STEPS + 1):
        u = np.arange(1.0, H.shape[1] + 1) + a
        V = H - np.outer(H @ u, 2 * u / (u @ u))
        low = float(np.abs(V[-m:]).min())
        if low > best_low:
            best, best_low = V, low
        if low > _ENTRY_FLOOR:
            break
    return best


def _complete_orthogonal(groups: list[tuple[int, list[int]]], T: int) -> np.ndarray:
    """Column-orthogonal completion from the reversed Helmert basis of the
    widest support's W rows, whose h_m (m >= 2) live on exactly the last m.
    A group of c columns of support size m takes h_m and the c-1 largest
    unused smaller indices (h_1 only when m = W): the counting criterion
    is exactly the condition that they exist, so every staircase that
    passes it is completed.  No index is shared between groups."""
    W = groups[-1][0] if groups else 0
    B = np.zeros((T, sum(len(cols) for _, cols in groups)))
    used: set[int] = set()
    for m, cols in groups:
        lowest = 1 if m == W else 2
        picks = [m] + [i for i in range(m - 1, lowest - 1, -1) if i not in used][: len(cols) - 1]
        used.update(picks)
        H = np.stack([_helmert(W, i) for i in picks], axis=1)
        B[T - W:, cols] = _mix(H, m)
    return B


def verify_feasible(P: SupportPattern, B: np.ndarray, tol: float = 1e-9) -> bool:
    """Support exact and Gram of unit columns diagonal to tol."""
    if B.shape != P.support.shape:
        return False
    if not np.array_equal(np.abs(B) > 1e-12, P.support):
        return False
    norms = np.linalg.norm(B, axis=0)
    if np.any(norms < 1e-12):
        return False
    U = B / norms
    G = U.T @ U
    off = G - np.diag(np.diag(G))
    return float(np.abs(off).max(initial=0.0)) <= tol


def verify_infeasible(P: SupportPattern, w: Infeasible) -> bool:
    """Re-check the counting witness: more distinct columns than distinct
    rows, all inside the staircase, every column meets w.rows, and pairwise
    overlaps confined to w.rows.  A malformed witness fails the check.

    The overlaps are one integer product: with `out` the witness columns
    on the rows outside w.rows, (out^T out)[a, b] counts the rows outside
    w.rows that columns a and b share, so it must be zero off the diagonal."""
    if not (distinct_indices(w.columns, P.cols) and distinct_indices(w.rows, P.rows)
            and len(w.columns) > len(w.rows)):
        return False
    S = P.support[:, list(w.columns)]
    inside = np.zeros(P.rows, dtype=bool)
    inside[list(w.rows)] = True
    out = S[~inside].astype(int)
    shared = out.T @ out
    return bool(S[inside].any(axis=0).all()
                and np.count_nonzero(shared) == np.count_nonzero(shared.diagonal()))


def is_int(x) -> bool:
    """x is an int or a numpy integer, and not a bool: True and False are
    ints to isinstance, and a list of them indexes numpy arrays as a mask."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def distinct_indices(xs, bound: int) -> bool:
    """xs is a tuple or list of distinct ints in range(bound)."""
    return (isinstance(xs, (tuple, list))
            and all(is_int(x) and 0 <= x < bound for x in xs)
            and len(set(xs)) == len(xs))


# ---------------------------------------------------------------------------
# strong spectral property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSPReport:
    """Nullity of the SSP system; witness X (if any) satisfies A*X = 0 on
    the support, zero diagonal, and [A, X] = 0."""

    nullity: int
    witness: np.ndarray | None
    smallest_sv: float

    @property
    def is_ssp(self) -> bool:
        return self.nullity == 0


# Singular values at most RANK_TOL times the largest count as zero.
RANK_TOL = 1e-9


def ssp_check(A: np.ndarray) -> SSPReport:
    """Decide the strong spectral property of a symmetric matrix.

    Unknowns are the symmetric hollow positions off A's support; the
    commutator equation [A, X] = 0 is linear in them, and SSP holds iff the
    system has full column rank (nullity 0).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    P = pattern_matrix(A)
    unknowns = [(i, j) for i in range(n) for j in range(i + 1, n) if not P[i, j]]
    if not unknowns:
        return SSPReport(0, None, float("inf"))
    eqs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    K = np.zeros((len(eqs), len(unknowns)))
    for u, (i, j) in enumerate(unknowns):
        X = np.zeros((n, n))
        X[i, j] = X[j, i] = 1.0
        C = A @ X - X @ A
        K[:, u] = [C[a, b] for a, b in eqs]
    sv = np.linalg.svd(K, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    if top == 0.0:
        rank = 0
        smallest = 0.0
    else:
        rank = int((sv > RANK_TOL * top).sum())
        nonzero = sv[sv > RANK_TOL * top]
        smallest = float(nonzero[-1]) if nonzero.size else 0.0
    nullity = len(unknowns) - rank
    witness = None
    if nullity > 0:
        _, _, Vt = np.linalg.svd(K)
        x = Vt[-1]
        X = np.zeros((n, n))
        for u, (i, j) in enumerate(unknowns):
            X[i, j] = X[j, i] = x[u]
        witness = X
    return SSPReport(nullity, witness, smallest)


# ---------------------------------------------------------------------------
# alternating-projection search for a target multiplicity list
# ---------------------------------------------------------------------------


@dataclass
class SearchTrace:
    rows: list[tuple[int, int, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        out = ["restart,iteration,residual"]
        out += [f"{r},{i},{res:.3e}" for r, i, res in self.rows]
        return "\n".join(out) + "\n"


def low_q_search(
    G: ThresholdGraph,
    q_target: int,
    multiplicity_list,
    budget: tuple[int, int] = (500, 200),
    seed: int = 0,
    edge_floor: float = 1e-3,
    trace: SearchTrace | None = None,
) -> np.ndarray | None:
    """Search S(G) for a matrix whose ordered multiplicity list is the target.

    Alternates projection onto the set of symmetric matrices with the given
    multiplicity structure (eigendecompose, average each block) with
    projection onto S(G) (zero non-edges, keep diagonals, push edge entries
    away from zero by a floor that relaxes on stagnation).  Every returned
    matrix re-verifies via in_pattern and cluster_spectrum; absence of
    success proves nothing.
    """
    mlist = list(multiplicity_list)
    n = G.n
    if sum(mlist) != n:
        raise ValueError("multiplicities must sum to the vertex count")
    if len(mlist) != q_target:
        raise ValueError("q_target must equal the multiplicity list length")
    restarts, iters = budget
    rng = np.random.default_rng(seed)
    E = np.asarray(G.adjacency, dtype=bool)
    idx = np.cumsum([0] + mlist)
    for r in range(restarts):
        signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        signs = np.triu(signs, 1)
        W = np.where(E, (signs + signs.T) * rng.uniform(0.5, 1.5, (n, n)), 0.0)
        W = (W + W.T) / 2
        W[np.diag_indices(n)] = rng.uniform(-1, 1, n)
        floor = edge_floor
        prev = None
        for it in range(iters):
            w, V = eigen_sym_vectors(W)
            lam = w.copy()
            for c in range(q_target):
                lam[idx[c]:idx[c + 1]] = w[idx[c]:idx[c + 1]].mean()
            S = (V * lam) @ V.T
            Wn = np.where(E, S, 0.0)
            Wn[np.diag_indices(n)] = np.diag(S)
            small = E & (np.abs(Wn) < floor)
            Wn[small] = np.where(S[small] >= 0, floor, -floor)
            res = float(np.linalg.norm(Wn - S))
            if trace is not None:
                trace.rows.append((r, it, res))
            W = (Wn + Wn.T) / 2
            if res < 1e-12:
                break
            if prev is not None and abs(prev - res) < 1e-14:
                floor *= 0.5  # stagnation: relax the edge floor
            prev = res
        eigs = eigen_sym(W)
        summary = cluster_spectrum(eigs)
        if list(summary.multiplicities) == mlist and in_pattern(W, G):
            return W
    return None
