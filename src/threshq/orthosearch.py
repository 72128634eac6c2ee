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

import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import ThresholdGraph
from .spectra import check_symmetric, cluster_spectrum, eigen_sym, eigen_sym_vectors
from .spectra import in_pattern, pattern_matrix


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
        """G's staircase, which G builds once and every pattern of G shares."""
        return cls(G.staircase)

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


def _column_groups(P: SupportPattern) -> list[tuple[int, list[int]]]:
    """(support size, columns) per group of equal-support columns,
    smallest support first."""
    by_size: dict[int, list[int]] = {}
    for j, a in enumerate(P.suffix_starts()):
        by_size.setdefault(P.rows - a, []).append(j)
    return sorted(by_size.items())


def decide_column_orthogonal(P: SupportPattern):
    """Decide whether the staircase admits a column-orthogonal completion.

    Feasible(B): B has the exact support, unit columns, pairwise inner
    products below 1e-9.  Infeasible(witness): counting obstruction.  One
    of the two is returned for every staircase.
    """
    T = P.rows
    groups = _column_groups(P)
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
    return Feasible(_complete_orthogonal(groups, T)[0])


_ENTRY_FLOOR = 1e-3  # smallest support entry a completion column should keep
_MIX_STEPS = 64


def _reflected(H: np.ndarray, group: np.ndarray, rank: np.ndarray, a: int) -> np.ndarray:
    """H with each column group mixed by its reflection I - 2uu^T/u^Tu,
    u = rank + a over the group's columns: H - H P in one product, with P
    block diagonal, 2uu^T/u^Tu on each group."""
    u = rank + a
    P = np.outer(u, 2 * u / np.bincount(group, u * u)[group])
    P *= group[:, None] == group
    return H - H @ P


def _group_lows(V: np.ndarray, on: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per group, the smallest |entry| of its columns on their support
    rows `on` (the last m rows for a group of support size m)."""
    return np.minimum.reduceat(np.where(on, np.abs(V), np.inf).min(axis=0), starts)


def _complete_orthogonal(groups: list[tuple[int, list[int]]],
                         T: int) -> tuple[np.ndarray, np.ndarray]:
    """Column-orthogonal completion B and the reflection offset a chosen
    per group.

    B comes from the reversed Helmert basis of the widest support's W
    rows: h_1 is 1/sqrt(W) on every row, and h_p (p >= 2) is 1 - p on row
    W - p and 1 on the p - 1 rows below it, over sqrt(p(p - 1)), so it
    lives on exactly the last p rows.  A group of c columns of support size
    m takes h_m and the c-1 largest unused smaller indices (h_1 only when
    m = W): the counting criterion is exactly the condition that they
    exist, so every staircase that passes it is completed.  No index is
    shared between groups.  The picks form one closed-form W x k block.

    Every group is mixed at a = 1 by one block-diagonal reflection
    product; the groups whose smallest support entry is still under the
    floor go on to a = 2, 3, ... together, each keeping the first a that
    clears the floor, else the a whose smallest such entry is largest (the
    first of equals).  The reflection has no zero entry, so every column
    keeps a share of its h_m."""
    k = sum(len(cols) for _, cols in groups)
    B = np.zeros((T, k))
    if not groups:
        return B, np.zeros(0, dtype=int)
    W = groups[-1][0]
    used: set[int] = set()
    order, picks, sizes = [], [], []
    for m, cols in groups:
        lowest = 1 if m == W else 2
        mine = [m] + [i for i in range(m - 1, lowest - 1, -1) if i not in used][: len(cols) - 1]
        used.update(mine)
        order += cols
        picks += mine
        sizes.append(len(cols))
    # h_1's top row is row 0, where the head value 1.0 keeps it all ones
    tops = [W - p if p > 1 else 0 for p in picks]
    rows = np.arange(W)[:, None]
    H = (rows >= tops).astype(float)
    H[tops, np.arange(k)] = [1.0 - p if p > 1 else 1.0 for p in picks]
    H /= [math.sqrt(p * (p - 1) if p > 1 else W) for p in picks]
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    group = np.repeat(np.arange(len(groups)), sizes)
    rank = np.arange(1.0, k + 1) - starts[group]
    on = rows >= np.repeat([W - m for m, _ in groups], sizes)

    V = _reflected(H, group, rank, 1)
    low = _group_lows(V, on, starts)
    chosen = np.ones(len(groups), dtype=int)
    pending = np.flatnonzero(low <= _ENTRY_FLOOR)
    for a in range(2, _MIX_STEPS + 1):
        if not pending.size:
            break
        idx = np.flatnonzero(np.isin(group, pending))
        Va = _reflected(H[:, idx], group[idx], rank[idx], a)
        la = _group_lows(Va, on[:, idx], np.cumsum(sizes[pending]) - sizes[pending])
        better = la > low[pending]
        take = np.isin(group[idx], pending[better])
        V[:, idx[take]] = Va[:, take]
        low[pending[better]] = la[better]
        chosen[pending[better]] = a
        pending = pending[la <= _ENTRY_FLOOR]
    B[T - W:, order] = V
    return B, chosen


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


def _ssp_system(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SSP system of a checked symmetric A, in closed form, with its
    unknowns (i, j), i < j, the positions off A's support: equation (a, b),
    a < b, of [A, X] = 0 reads unknown (i, j) with coefficient
    A[a,i][b=j] + A[a,j][b=i] - [a=i]A[j,b] - [a=j]A[i,b]."""
    a, b = np.triu_indices(len(A), 1)
    off = ~pattern_matrix(A)[a, b]
    i, j = a[off], b[off]
    a, b = a[:, None], b[:, None]
    K = A[a, i] * (b == j) + A[a, j] * (b == i) - (a == i) * A[j, b] - (a == j) * A[i, b]
    return K, i, j


def ssp_check(A: np.ndarray) -> SSPReport:
    """Decide the strong spectral property of A, which must pass
    `check_symmetric`: SSP holds iff the linear system [A, X] = 0 in the
    hollow symmetric X supported off A's support (`_ssp_system`) has full
    column rank (nullity 0)."""
    A = np.asarray(A, dtype=float)
    check_symmetric(A)
    K, i, j = _ssp_system(A)
    if not i.size:
        return SSPReport(0, None, float("inf"))
    sv = np.linalg.svd(K, compute_uv=False)
    nonzero = sv[sv > RANK_TOL * sv[0]]  # none when K is zero
    smallest = float(nonzero[-1]) if nonzero.size else 0.0
    nullity = i.size - nonzero.size
    if nullity == 0:
        return SSPReport(0, None, smallest)
    witness = np.zeros_like(A)
    witness[i, j] = witness[j, i] = np.linalg.svd(K)[2][-1]
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
