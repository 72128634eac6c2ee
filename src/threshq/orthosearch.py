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
    """Dominating-by-isolated support of S(G), one int per column: isolated
    vertex j is adjacent to dominating vertices starts[j], ..., rows - 1
    (creation order), the ones added after it."""

    starts: tuple[int, ...]
    rows: int

    @property
    def cols(self) -> int:
        return len(self.starts)

    @property
    def support(self) -> np.ndarray:
        """The read-only boolean staircase the starts draw: support[i, j]
        is True iff i >= starts[j]."""
        S = np.arange(self.rows)[:, None] >= np.array(self.starts, dtype=int)
        S.setflags(write=False)
        return S

    @classmethod
    def from_graph(cls, G: ThresholdGraph) -> "SupportPattern":
        """G's pattern, read off its creation bits in one pass."""
        starts, rows = [], 0
        for b in G.creation.bits:
            rows += b
            if not b:
                starts.append(rows)
        return cls(tuple(starts), rows)

    @classmethod
    def from_support(cls, S) -> "SupportPattern":
        """The pattern of a boolean array whose every column is a nonempty
        suffix, read by its first True per column; ValueError otherwise."""
        S = np.asarray(S, dtype=bool)
        starts = S.argmax(axis=0) if S.ndim == 2 and len(S) else None
        if starts is None or not np.array_equal(S, np.arange(len(S))[:, None] >= starts):
            raise ValueError("support is not a nested suffix staircase")
        return cls(tuple(starts.tolist()), S.shape[0])


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
    smallest support first; ValueError on an empty column."""
    by_size: dict[int, list[int]] = {}
    for j, a in enumerate(P.starts):
        by_size.setdefault(P.rows - a, []).append(j)
    if 0 in by_size:
        raise ValueError("support is not a nested suffix staircase")
    return sorted(by_size.items())


def decide_column_orthogonal(P: SupportPattern):
    """Decide whether the staircase admits a column-orthogonal completion.

    It counts the column groups of the starts, no array: Feasible(B), B
    with the exact support, unit columns and pairwise inner products below
    1e-9, or Infeasible(witness), the counting obstruction.  One of the two
    is returned for every staircase.
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
    return Feasible(_complete_orthogonal(groups, T))


def _complete_orthogonal(groups: list[tuple[int, list[int]]], T: int) -> np.ndarray:
    """Column-orthogonal completion B, unit columns, in closed form.

    B comes from the reversed Helmert basis of the widest support's W
    rows: h_1 is 1/sqrt(W) on every row, and h_p (p >= 2) is 1 - p on row
    W - p and 1 on the p - 1 rows below it, over sqrt(p(p - 1)), so it
    lives on exactly the last p rows.  The widest group's first column
    (column 0 of a graph's block) is h_1, unmixed.  Every other group of c
    columns of support size m takes h_m and the c-1 largest unused indices
    in [2, m): the counting criterion is exactly the condition that they
    exist, so every staircase that passes it is completed.  No index is
    shared.

    Each such group is mixed by one fixed reflection I - 2uu^T/u^Tu, u =
    (-1, e, ..., e) with e = 1/(2 m H_m), H_m = 1 + 1/2 + ... + 1/m, which
    makes every support entry at least e/(2m) = 1/(4 m^2 H_m): above a
    column's own top row its h_m share dominates the e-weighted others,
    whose sum is at most H_m on every row, and at and below that row its
    own Helmert vector dominates.  The groups mix in one product, O(W k)."""
    k = sum(len(cols) for _, cols in groups)
    B = np.zeros((T, k))
    if not groups:
        return B
    W, widest = groups[-1]
    B[T - W:, widest[0]] = 1 / math.sqrt(W)
    used: set[int] = set()
    order, picks, sizes, supports = [], [], [], []
    for m, cols in groups[:-1] + [(W, widest[1:])]:
        if not cols:
            continue
        mine = [m] + [i for i in range(m - 1, 1, -1) if i not in used][: len(cols) - 1]
        used.update(mine)
        order += cols
        picks += mine
        sizes.append(len(cols))
        supports.append(m)
    if not order:
        return B
    tops = W - np.array(picks)
    H = (np.arange(W)[:, None] >= tops).astype(float)
    H[tops, np.arange(len(picks))] = [1.0 - p for p in picks]
    H /= [math.sqrt(p * (p - 1)) for p in picks]
    sizes, supports = np.array(sizes), np.array(supports)
    eps = 1 / (2 * supports * np.cumsum(1 / np.arange(1, W + 1))[supports - 1])
    starts = np.cumsum(sizes) - sizes
    group = np.repeat(np.arange(len(sizes)), sizes)
    u = eps[group]
    u[starts] = -1.0
    w = 2 * u / (1 + (sizes - 1) * eps ** 2)[group]  # 2u / u^T u
    B[T - W:, order] = H - np.add.reduceat(H * u, starts, axis=1)[:, group] * w
    return B


def verify_feasible(P: SupportPattern, B: np.ndarray, tol: float = 1e-9) -> bool:
    """Support exact and Gram of unit columns diagonal to tol."""
    S = P.support
    if B.shape != S.shape or not np.array_equal(np.abs(B) > 1e-12, S):
        return False
    norms = np.linalg.norm(B, axis=0)
    if np.any(norms < 1e-12):
        return False
    U = B / norms
    G = U.T @ U
    return float(np.abs(G - np.diag(np.diag(G))).max(initial=0.0)) <= tol


def verify_infeasible(P: SupportPattern, w: Infeasible) -> bool:
    """Re-check the counting witness: more distinct columns than distinct
    rows, all inside the staircase, every column meets w.rows, and pairwise
    overlaps confined to w.rows.  A malformed witness fails the check.

    O(len(columns) + len(rows)) integer work on the starts, no array:
    column c, the suffix [starts[c], rows), meets w.rows iff starts[c] <=
    max(w.rows).  Two columns share the suffix from the larger start, so
    the largest overlap starts at s2, the second-smallest witness start,
    and holds every other: overlaps are confined iff w.rows covers [s2,
    rows).  A lone column has no rows to meet."""
    if not (distinct_indices(w.columns, P.cols) and distinct_indices(w.rows, P.rows)
            and len(w.columns) > len(w.rows)):
        return False
    starts = [P.starts[c] for c in w.columns]
    if not w.rows or max(starts) > max(w.rows):
        return False
    starts.remove(min(starts))
    s2 = min(starts)
    return sum(r >= s2 for r in w.rows) == P.rows - s2


def is_int(x) -> bool:
    """x is an int or a numpy integer, and not a bool: True and False are
    ints to isinstance, and a list of them indexes numpy arrays as a mask."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def distinct_indices(xs, bound: int) -> bool:
    """xs is a tuple or list of distinct ints in range(bound).  Exact ints,
    the common case, pass in one type scan; any other entry goes through
    is_int."""
    if not isinstance(xs, (tuple, list)):
        return False
    if not (set(map(type, xs)) <= {int} or all(map(is_int, xs))):
        return False
    return not xs or bool(0 <= min(xs) and max(xs) < bound and len(set(xs)) == len(xs))


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
