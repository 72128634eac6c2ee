"""Dense symmetric spectra, distinct-eigenvalue clustering, and pattern tests.

S(G) is the set of real symmetric matrices whose off-diagonal support is
exactly the edge set of G; diagonals are free.  q(A) is the number of
distinct eigenvalues of A after gap clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import ThresholdGraph


class NoConvergence(RuntimeError):
    """The matrix has an entry that is not finite, or the eigensolver failed
    to converge."""


class DimensionMismatch(ValueError):
    pass


SYM_TOL = 1e-12
# An entry at most ZERO_TOL * max(1, max|A|) in size counts as zero.
ZERO_TOL = 1e-8
# Sorted eigenvalue lists agree within SPECTRUM_ATOL * max(1, max|want|).
SPECTRUM_ATOL = 1e-8


def check_symmetric(A: np.ndarray) -> None:
    """NoConvergence when an entry of A is not finite, else
    DimensionMismatch unless A is square and symmetric within
    SYM_TOL * max(1, max|A|).  max|A| is NaN or infinite exactly when an
    entry is, so the finiteness test reads the scale the symmetry test needs
    and adds no pass over A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    peak = float(np.abs(A).max(initial=0.0))
    if not peak < math.inf:
        raise NoConvergence("matrix has an entry that is not finite")
    if float(np.abs(A - A.T).max(initial=0.0)) > SYM_TOL * max(1.0, peak):
        raise DimensionMismatch("matrix is not symmetric")


def eigen_sym(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Accuracy contract (checked in the test suite): each eigenvalue within
    1e-10 * (1 + ||A||) and residual/orthogonality of the implicit
    orthogonal similarity below 1e-10.
    """
    A = np.asarray(A, dtype=float)
    check_symmetric(A)
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def eigen_sym_vectors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors."""
    A = np.asarray(A, dtype=float)
    check_symmetric(A)
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc


@dataclass(frozen=True)
class SpectrumSummary:
    """Distinct eigenvalues with multiplicities, ascending."""

    distinct: tuple[tuple[float, int], ...]
    tol: float

    @property
    def q(self) -> int:
        return len(self.distinct)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.distinct)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.distinct)

    def __str__(self) -> str:
        parts = []
        for v, m in self.distinct:
            parts.append(f"{v:g}" + (f"^[{m}]" if m > 1 else ""))
        return "{" + ", ".join(parts) + "}"


def default_cluster_tol(eigs: np.ndarray) -> float:
    """1e-6 times max(1, spectral diameter); separates the catalog's
    rational/half-integer spectra from roundoff."""
    eigs = np.asarray(eigs, dtype=float)
    spread = float(eigs.max() - eigs.min()) if eigs.size else 0.0
    return 1e-6 * max(1.0, spread)


def _gap_rule(eigs, tol: float | None):
    """The greedy gap rule's inputs: eigs sorted (so every reading is
    order-independent), tol (default_cluster_tol when None) and the mask of
    sorted gaps above tol, where a new group starts.  Every eigenvalue and
    a given tol must be finite, and tol >= 0, else ValueError: a NaN or
    infinite one would merge eigenvalues into one group.  NaN sorts last
    and an infinity sits at an end, so the two end entries decide."""
    eigs = np.sort(np.asarray(eigs, dtype=float).ravel())
    if eigs.size and not (math.isfinite(eigs[0]) and math.isfinite(eigs[-1])):
        raise ValueError("eigenvalues must be finite")
    if tol is None:
        tol = default_cluster_tol(eigs)
    elif not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"clustering tolerance must be finite and >= 0, got {tol}")
    return eigs, tol, np.diff(eigs) > tol


def cluster_spectrum(eigs, tol: float | None = None) -> SpectrumSummary:
    """Greedy gap clustering of an eigenvalue list: a new group starts
    wherever the gap to the previous eigenvalue exceeds tol."""
    eigs, tol, splits = _gap_rule(eigs, tol)
    if eigs.size == 0:
        return SpectrumSummary((), 0.0)
    edges = np.flatnonzero(np.concatenate(([True], splits, [True])))
    counts = edges[1:] - edges[:-1]
    means = np.add.reduceat(eigs, edges[:-1]) / counts
    return SpectrumSummary(tuple(zip(means.tolist(), counts.tolist())), tol)


def q_of_spectrum(eigs, tol: float | None = None) -> int:
    """cluster_spectrum(eigs, tol).q with no group built: 1 + the number of
    sorted gaps above tol, or 0 for an empty list."""
    eigs, _, splits = _gap_rule(eigs, tol)
    return 1 + int(np.count_nonzero(splits)) if eigs.size else 0


def q_of_matrix(A: np.ndarray, tol: float | None = None) -> int:
    """Number of distinct eigenvalues of A at the clustering tolerance."""
    return q_of_spectrum(eigen_sym(A), tol)


def pattern_matrix(A: np.ndarray) -> np.ndarray:
    """Boolean off-diagonal support of A after scaling to unit max entry."""
    A = np.asarray(A, dtype=float)
    scale = float(np.abs(A).max(initial=0.0))
    P = np.abs(A) > ZERO_TOL * max(1.0, scale)
    np.fill_diagonal(P, False)
    return P


@dataclass(frozen=True)
class PatternReport:
    """Outcome of an S(G) membership test; truthy iff the matrix is in S(G)."""

    ok: bool
    violations: tuple[tuple[int, int, str], ...]

    def __bool__(self) -> bool:
        return self.ok


def in_pattern(A: np.ndarray, G) -> PatternReport:
    """Test A in S(G): off-diagonal entries nonzero exactly on edges.

    G may be a ThresholdGraph or a raw boolean adjacency matrix.  The
    diagonal is unconstrained.  Entries are compared against
    ZERO_TOL * max(1, max|A|).
    """
    check_symmetric(A)
    return pattern_report(A, G)


def pattern_report(A: np.ndarray, G) -> PatternReport:
    """The S(G) comparison of `in_pattern`, for an A that `check_symmetric`
    has already passed, as `eigen_sym` does: a caller that eigensolves A
    validates it once."""
    A = np.asarray(A, dtype=float)
    adj = G.adjacency if isinstance(G, ThresholdGraph) else np.asarray(G, dtype=bool)
    n = adj.shape[0]
    if A.shape[0] != n:
        raise DimensionMismatch(f"matrix is {A.shape[0]}x{A.shape[0]}, graph has {n} vertices")
    mismatch = pattern_matrix(A) != adj
    if not mismatch.any():
        return PatternReport(True, ())
    rows, cols = np.nonzero(np.triu(mismatch, 1))
    violations = tuple((i, j, "edge entry is zero" if adj[i, j] else "non-edge entry is nonzero")
                       for i, j in zip(rows.tolist(), cols.tolist()))
    return PatternReport(not violations, violations)


def spectrum_values(distinct) -> np.ndarray:
    """A (value, multiplicity) list as the eigenvalue array it stands for."""
    return np.repeat(np.array([v for v, _ in distinct], dtype=float), [m for _, m in distinct])


def spectra_agree(got, want) -> bool:
    """True iff two eigenvalue lists agree entry by entry, once sorted,
    within SPECTRUM_ATOL * max(1, max |want|)."""
    got, want = np.sort(got), np.sort(want)
    return got.size == want.size and bool(np.abs(got - want).max(initial=0.0)
                                          <= SPECTRUM_ATOL * max(1.0, np.abs(want).max(initial=0.0)))


def assert_spectrum(A: np.ndarray, expected: list[tuple[float, int]]) -> bool:
    """True iff Spec(A) equals the expected (value, multiplicity) multiset."""
    return spectra_agree(eigen_sym(A), spectrum_values(expected))


# ---------------------------------------------------------------------------
# matrix file format: first line "n" (or "rows cols" for factors), then rows
# of whitespace-separated reals; '#' lines before the header are ignored.
# ---------------------------------------------------------------------------


def save_matrix(path, A: np.ndarray) -> None:
    A = np.asarray(A, dtype=float)
    check_symmetric(A)
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]}\n")
        for row in A:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_rows(path):
    """(header fields, numeric rows) of a matrix or factor file; comment
    lines are skipped."""
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split()
            else:
                rows.append([float(x) for x in line.split()])
    if header is None:
        raise ValueError(f"{path}: no header line")
    return header, rows


def read_matrix(path) -> np.ndarray:
    """The square matrix of an 'n' file, with symmetry not yet checked: for
    a caller whose next step validates it, as `eigen_sym` does."""
    header, rows = read_rows(path)
    if len(header) != 1:
        raise ValueError(f"{path}: a matrix header is 'n'")
    n = int(header[0])
    A = np.array(rows, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"{path}: expected {n}x{n}, got {A.shape}")
    return A


def load_matrix(path) -> np.ndarray:
    """Load a square symmetric matrix; symmetry enforced at 1e-12."""
    A = read_matrix(path)
    check_symmetric(A)
    return A


def save_factor(path, M: np.ndarray, construction_id: str) -> None:
    """Rectangular factor with a '# construction: <id>' comment line."""
    M = np.asarray(M, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"# construction: {construction_id}\n")
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_factor(path) -> np.ndarray:
    """The factor matrix of a 'rows cols' file; comment lines are skipped."""
    header, rows = read_rows(path)
    if len(header) != 2:
        raise ValueError(f"{path}: a factor header is 'rows cols'")
    r, c = int(header[0]), int(header[1])
    M = np.array(rows, dtype=float)
    if M.shape != (r, c):
        raise ValueError(f"{path}: expected {r}x{c}, got {M.shape}")
    return M
