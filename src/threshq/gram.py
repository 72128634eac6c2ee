"""Vertex-clique incidence factors and spectrum-preserving duplications.

A factor M has rows indexed by vertices and columns by the cliques of an
edge clique cover; arranging the entries so that row inner products are
nonzero exactly on edges puts M M^T in S(G), and the nonzero spectrum of
M M^T equals that of the small cogram M^T M.  The catalog below collects
the explicit factors used by the classification engine, each with rows in
creation order of its target graph.  All but the liberated prop_a15a19
seeds, and the q = 2 certificate's factor too, are in the gate's form and
built by its one constructor, `_gate_factor`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .orthosearch import SupportPattern, _ssp_system, is_int, verify_feasible
from .sequences import CreationSequence, ThresholdGraph, build_graph, graph_from_text
from .spectra import DimensionMismatch, NoConvergence, _validated, cluster_spectrum, eigen_sym
from .spectra import pattern_report


class BadParams(ValueError):
    pass


class DiagonalNotEigenvalue(ValueError):
    pass


class BadAngle(ValueError):
    pass


class DegenerateRow(ValueError):
    pass


class InfeasibleRepair(RuntimeError):
    """An orthogonality certificate left G's pattern.  Every dominating
    product of the certificate has size at least 1, and every support entry
    of the gate's completion at least 1/(4 m^2 H_m) for support size m, so
    it is raised only at large orders, where such an entry falls under
    ZERO_TOL of the largest, which grows like n.  Measured on 0^k 1^k:
    every k <= 547 certifies, and k = 548 (n = 1096) and every tenth k from
    there to 698 raise."""


@dataclass(frozen=True)
class GramFactor:
    """Rectangular factor with its target's creation bits and catalog
    metadata.

    target, the threshold graph of `bits`, is built on first access: a
    chain reads only M, the spectrum and the slots, so no seed it grows
    builds a graph.  expected_spectrum lists the distinct eigenvalues of
    M M^T with their multiplicities; every catalog factor and every
    section12_factor seed has one, so a chain starts from a known spectrum.
    dup_slots lists (vertex, eigenvalue) pairs valid for dup_realization;
    the chain planner grows a zero-run from the first slot listed inside it.
    """

    M: np.ndarray
    bits: tuple[int, ...]
    construction_id: str
    params: dict = field(default_factory=dict)
    expected_spectrum: tuple[tuple[float, int], ...] | None = None
    dup_slots: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        # target is built from bits only on first access, so a bad bits
        # argument fails here, when the factor is made
        if not (isinstance(self.bits, tuple) and len(self.bits) == len(self.M)):
            raise BadParams("GramFactor needs its target's creation bits, one per row of M")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @functools.cached_property
    def target(self) -> ThresholdGraph:
        return build_graph(CreationSequence(self.bits))


def gram(f: GramFactor) -> np.ndarray:
    return f.M @ f.M.T


def cogram(f: GramFactor) -> np.ndarray:
    return f.M.T @ f.M


def _frozen(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    A.setflags(write=False)
    return A


# ---------------------------------------------------------------------------
# catalog constructions
# ---------------------------------------------------------------------------


def _gate_factor(bits, D, tails) -> np.ndarray:
    """The n x k factor in the gate's form: the rows of D on the dominating
    vertices of creation sequence `bits`, in creation order, and tails[j]
    alone in column j on the j-th isolated vertex.  With nonzero tails,
    M M^T lies in S(G) exactly when D's support is G's dominating-by-isolated
    staircase (`SupportPattern.from_graph(G).support`) and every two rows of
    D have a nonzero inner product; the cogram M^T M is D^T D + diag(tails^2)."""
    dom = np.array(bits, dtype=bool)
    M = np.zeros((len(bits), len(tails)))
    M[dom] = D
    M[~dom, np.arange(len(tails))] = tails
    return _frozen(M)


def _star(k: int) -> GramFactor:
    """Star K_(1,k), target 0^k 1: the centre's D is one row of ones and
    every tail is 1.  The cogram is I + J, so the spectrum is 0, 1^(k-1),
    k+1 (no 1 when k = 1)."""
    if not is_int(k) or k < 1:
        raise BadParams("star needs an int k >= 1")
    k = int(k)  # a numpy k would show in the chain label
    bits = (0,) * k + (1,)
    spec = ((0.0, 1), (1.0, k - 1), (float(k + 1), 1))
    return GramFactor(_gate_factor(bits, np.ones((1, k)), np.ones(k)), bits, "star", {"k": k},
                      expected_spectrum=tuple((v, m) for v, m in spec if m))


def thm00_lambda(t: int) -> float:
    """t^2 - t + 1: the eigenvalue of thm00(t)'s dup slot, vertex 0."""
    return float(t * t - t + 1)


def _thm00(t: int) -> GramFactor:
    """Alternating sequence (0,1)^t: dominating vertex i (1-based) has ones
    before column i and the value i in column i, and tail i is
    sqrt(t^2 + 1 - i^2 - (t - i)), which equalizes the column norms (vertex
    0's is sqrt(t^2 - t + 1)).  The cogram is (t^2-t+1) I + t J."""
    if not is_int(t) or t < 2:
        raise BadParams("thm00 needs an int t >= 2")
    t = int(t)
    lam, bits, i = thm00_lambda(t), (0, 1) * t, np.arange(1, t + 1)
    D = np.tri(t, t, -1)
    np.fill_diagonal(D, i)
    return GramFactor(_gate_factor(bits, D, np.sqrt(t * t + 1 - i * i - (t - i))), bits,
                      "thm00", {"t": t},
                      expected_spectrum=((0.0, t), (lam, t - 1), (float(2 * t * t - t + 1), 1)),
                      dup_slots=((0, lam),))


R2 = math.sqrt(2)
R3 = math.sqrt(3)
R7 = math.sqrt(7)
R8 = math.sqrt(8)

# The paper's fixed seeds in the gate's form, by construction id: (bits, D,
# tails, expected spectrum, dup slots).  thm06's cogram is 3I + 2J on three
# points, so its eigenvalues are 9 and 3 (twice).
_FIXED = {
    "thm061": ("0101", [[1, 0], [1, 1]], [1, R2],
               ((0.0, 2), (2.0, 1), (4.0, 1)), ((2, 2.0),)),
    "thm01": ("00101", [[1, -3, 0], [1, 1, -2]], [3, 1, R7],
              ((0.0, 2), (7.0, 1), (13.0, 2)), ((3, 7.0),)),
    "thm10": ("01001", [[1, 0, 0], [1, 1, 1]], [1, 1, 1],
              ((0.0, 2), (1.0, 1), (3 - R2, 1), (3 + R2, 1)), ((0, 1.0), (3, 1.0), (2, 1.0))),
    "thm05": ("010101", [[R2, 0, 0], [1, -3, 0], [1, 1, -2]], [R7, 1, R7],
              ((0.0, 3), (7.0, 1), (13.0, 2)), ((0, 7.0), (4, 7.0))),
    "thm06": ("010101", [[1, 0, 0], [1, 1, 0], [1, 1, 2]], [R2, R3, 1],
              ((0.0, 3), (3.0, 2), (9.0, 1)), ((2, 3.0),)),
    "qlt4": ("0101001", [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]], [1, R2, 1, 1],
             ((0.0, 3), (1.0, 1), (2.0, 2), (7.0, 1)), ((0, 1.0), (2, 2.0), (5, 1.0), (4, 1.0))),
}


def _fixed(cid: str) -> GramFactor:
    text, D, tails, spec, dup_slots = _FIXED[cid]
    bits = tuple(map(int, text))
    return GramFactor(_gate_factor(bits, D, tails), bits, cid,
                      expected_spectrum=spec, dup_slots=dup_slots)


# The edge value a liberation gives each edge of G that its donor lacks;
# it stops once every entry it sets is within LIBERATION_TOL * max(1,
# max|A|) of its value, and raises NoConvergence after LIBERATION_STEPS.
NEW_EDGE = 0.05
LIBERATION_TOL = 1e-14
LIBERATION_STEPS = 50


def _liberated(M: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    """The factor Q^T M, Q orthogonal, whose gram lies in S(G), for a factor
    M whose gram A = M M^T has the strong spectral property (SSP) and a
    pattern inside G's; Q^T A Q keeps A's spectrum.

    The entries to set are the unknowns (i, j) of A's SSP system K
    (`orthosearch._ssp_system`), the pairs off A's support: NEW_EDGE on an
    edge of G, 0 off it.  For the Cayley rotation Q = (I - S/2)^-1 (I + S/2)
    of a skew S, Q^T A Q = A + AS - SA + O(S^2), and the Jacobian of those
    entries in S's upper triangle is exactly K^T, so the SSP is exactly its
    full row rank (Barrett, Fallat, Hall, Hogben, Lin and Shader, Electron.
    J. Combin. 24(2), 2017).  Each chord-Newton step solves K^T s = -r for
    the residual r by one pseudoinverse, frozen at A: a system read at a
    later iterate would drop the new edges from its unknowns once they turn
    nonzero."""
    A = M @ M.T
    K, i, j = _ssp_system(A)
    target = np.where(G.adjacency[i, j], NEW_EDGE, 0.0)
    step = np.linalg.pinv(K.T)
    tol = LIBERATION_TOL * max(1.0, float(np.abs(A).max()))
    a, b = np.triu_indices(len(A), 1)
    I, S = np.eye(len(A)), np.zeros_like(A)
    for _ in range(LIBERATION_STEPS):
        r = (M @ M.T)[i, j] - target
        if np.abs(r).max(initial=0.0) <= tol:
            return M
        S[a, b] = -step @ r
        S[b, a] = -S[a, b]
        M = np.linalg.solve(I + S / 2, I - S / 2) @ M  # Q^T M
    raise NoConvergence(f"liberation did not converge in {LIBERATION_STEPS} steps")


# prop_a15a19's bases, order-8 rows 15 and 19, each with the embedding of
# the factor's rows: row i goes to base vertex embedding[i].
A15A19_BASES = {
    "00100101": (2, 0, 1, 5, 3, 4, 7, 6),
    "00010011": (3, 0, 1, 7, 2, 4, 6, 5),
}


def _prop_a15a19(base: str = "00100101") -> GramFactor:
    """The q = 3 factor of order-8 rows 15 and 19: its gram has spectrum
    0^3, 3^3, 11^2, the SSP and a pattern that embeds in both bases.  Its
    rows are placed in base vertex order by the embedding, then liberated
    into S(base) (`_liberated`), which keeps the spectrum and the SSP."""
    emb = A15A19_BASES.get(base)
    if emb is None:
        raise BadParams(f"prop_a15a19 has no base {base!r}")
    rows = [[R8, 0, 0, 0, 0], [1, -R2, 0, 0, 0], [R2, 1, 0, 0, 0], [0, 1, 1, 1, 0],
            [0, 0, R3, 0, 0], [0, 0, 0, R3, 0], [0, 1, 1, 1, 2], [0, 0, 0, 0, 1]]
    M = np.array(rows, dtype=float)[np.argsort(emb)]  # row i at vertex emb[i]
    G = graph_from_text(base)
    return GramFactor(_frozen(_liberated(M, G)), G.creation.bits, "prop_a15a19", {"base": base},
                      expected_spectrum=((0.0, 3), (3.0, 3), (11.0, 2)))


def _section12_params(s, m) -> tuple[int, int]:
    """s and m of a paired-column seed as ints: BadParams unless both are
    ints, not bools, with s >= 2 and 1 <= m <= s."""
    if not (is_int(s) and is_int(m)):
        raise BadParams("the paired-column seed needs int s and m")
    s, m = int(s), int(m)
    if s < 2 or not (1 <= m <= s):
        raise BadParams("the paired-column seed needs s >= 2 and 1 <= m <= s")
    return s, m


def _pair_starts(s: int, m: int) -> tuple[range, range]:
    """The first column of each ordinary pair of the paired-column seed,
    left and right of its middle pair (m - 1, m): columns pair greedily on
    each side of it."""
    return range(0, m - 2, 2), range(m + 1, s, 2)


def _paired_columns(s: int, m: int) -> np.ndarray:
    """The s x (s+1) dominating rows D of the paired-column seed of block
    count s whose block m is the (0, 0, 1) one.  Columns are 0-based here;
    the middle column is m - 1.

    Run i ends at column i before the middle column and at column i + 1
    from it on, so the middle column ends none.  Columns pair greedily on
    each side of the middle pair (m - 1, m) (`_pair_starts`).  A run's row
    is ones up to its end column, and ends in a 2 when that column is the
    second of an ordinary pair.  Each column c also has a tail, one
    isolated row whose only entry sits in column c.  The equal-norm
    equations of a pair (a, b), |D_a|^2 + f2_a = |D_b|^2 + f2_b = D_a . D_b
    + 3 (+ 1 in the middle pair), solve to squared tails f2 = 3 in the
    first column of an ordinary pair and 1 everywhere else, which is also
    an unpaired column's tail (`section12_form`).  So each ordinary pair
    gives eigenvalue 3 (eigenvector e_a - e_b) and the middle pair, whose
    two columns of D are equal, eigenvalue 1.
    """
    D = np.tri(s, s + 1, 1)  # ones through column i + 1 in row i
    d, w = D.reshape(-1), s + 2  # a view of D; w steps from (i, i) to (i + 1, i + 1)
    d[1:(m - 1) * w:w] = 0.0  # (i, i + 1) for the runs i < m - 1
    # the run ending at the second column a + 1 of pair (a, a + 1) is run
    # a + 1 left of the middle pair and run a right of it
    d[w:(m - 1) * w:2 * w] = 2.0  # (a + 1, a + 1), a in left
    d[(m + 1) * w + 1:s * w:2 * w] = 2.0  # (a, a + 1), a in right
    return D


def _section12_bits(s: int, m: int) -> tuple[int, ...]:
    return (0, 1) * (m - 1) + (0, 0, 1) + (0, 1) * (s - m)


def section12_form(s: int, m: int) -> tuple[tuple, tuple[tuple[int, float], ...]]:
    """section12_factor(s, m)'s block form blocks, (0,1)^(m-1) (0,0,1)
    (0,1)^(s-m), and its dup slots, read without building the seed: every
    zero, in column order, with its column's squared tail f2
    (`_paired_columns`), 3 in the first column of an ordinary pair and 1
    elsewhere, which is its diagonal entry and an eigenvalue.  The seed
    takes its tails from these slots, so they are its one source.
    BadParams unless s and m are ints with s >= 2 and 1 <= m <= s."""
    s, m = _section12_params(s, m)
    left, right = _pair_starts(s, m)
    firsts = {*left, *right}
    blocks = ((1, 1),) * (m - 1) + ((2, 1),) + ((1, 1),) * (s - m)
    # column c's zero is vertex 2c up to the middle column m - 1, 2c - 1 after it
    return blocks, tuple((2 * c - (c >= m), 3.0 if c in firsts else 1.0) for c in range(s + 1))


# The two (s, m) where `section12_q` leaves its rule.
_SECTION12_Q_EXCEPTIONS = {(2, 2): 4, (3, 2): 5}


def section12_q(s: int, m: int) -> int:
    """q of the paired-column seed section12_factor(s, m) in closed form,
    with nothing built.  With b = s // 2 + 3: for even s, b when m = 1 or m
    is even and >= 4, else b + 1; for odd s, b when m = 1, b + 2 when m is
    2 or s - 1, else b + 1; except (2, 2) and (3, 2), which read 4 and 5.
    So q >= 4, with b the least over m, and q <= floor((s+9)/2), the
    paper's general bound, which the largest reaches for s >= 4.

    Checked, not derived: it is the length of the built seed's
    expected_spectrum for every m and s <= 57, and the count of the
    cogram's eigenvalues plus zeros clustered at 1e-10 of their spread,
    with every gap between clusters at least 150 times that and none inside
    one above 1e-5 times it, for every m and s <= 129 (tests/test_gram.py).
    The chain planner compares it across sources; the chain check still
    compares the realized matrix with the built seed's spectrum and q, so
    a wrong value here could change which source is planned, never a
    certified value.  BadParams as for `section12_form`."""
    s, m = _section12_params(s, m)
    if (s, m) in _SECTION12_Q_EXCEPTIONS:
        return _SECTION12_Q_EXCEPTIONS[s, m]
    b = s // 2 + 3
    if s % 2 == 0:
        return b if m == 1 or (m >= 4 and m % 2 == 0) else b + 1
    return b if m == 1 else b + 2 if m in (2, s - 1) else b + 1


def section12_factor(s: int, m: int) -> GramFactor:
    """Paired-column seed, the duplication chain's last resort and the
    general upper bound's witness: blocks all (0,1) except block m,
    which is (0,0,1).  It is `_paired_columns`'s D in the gate's form
    (`_gate_factor`), with the squared tails its dup slots list
    (`section12_form`): run j's dominating row follows
    its zeros, and the zeros take the columns' tails in column order.
    Every isolated diagonal entry (1 or 3) is an eigenvalue, so all zero
    blocks may be grown by duplication.  expected_spectrum is the
    clustered spectrum of the (s+1) x (s+1) cogram M^T M plus n-s-1 zeros,
    which is Spec(M M^T) without solving the n x n gram; its length is the
    q a chain of the seed is checked against, and `section12_q` gives it
    unbuilt.  Chain step labels name the factor by its construction_id,
    "ub_case1", though construct_library does not build it.  No graph is
    built: its `target` comes on first access.
    """
    s, m = _section12_params(s, m)
    return _section12_seed(s, m, section12_form(s, m)[1])


def _section12_seed(s: int, m: int, dup_slots) -> GramFactor:
    """section12_factor(s, m) built from its dup slots, `section12_form(s,
    m)`'s, which the chain planner already holds in the seed's descriptor;
    s and m must be checked ints."""
    bits = _section12_bits(s, m)
    M = _gate_factor(bits, _paired_columns(s, m), [math.sqrt(f2) for _, f2 in dup_slots])
    spec = cluster_spectrum(np.concatenate((eigen_sym(M.T @ M), np.zeros(s))))
    return GramFactor(M, bits, "ub_case1", {"s": s, "m": m},
                      expected_spectrum=spec.distinct, dup_slots=dup_slots)


CONSTRUCTIONS = {
    "star": _star,
    "thm00": _thm00,
    **{cid: functools.partial(_fixed, cid) for cid in _FIXED},
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


# A public step's checks compare within DUP_TOL * max(1, max|A|).
DUP_TOL = 1e-8


def _runs_at_once(F: np.ndarray, runs: dict) -> np.ndarray:
    """F grown by runs {v: (lam, k)} on rows v of F, each run's k copies
    right after row v, by one gather and the run's Helmert columns: row v
    and its copies become F_v / sqrt(k+1), plus sqrt(lam) times their rows
    of the (k+1) x k Helmert basis of 1^perp (column j: 1 / sqrt(j(j+1)) on
    its first j rows, -j / sqrt(j(j+1)) on row j+1) in k new columns, each
    written into the run's own rows, so the cost is the entries written.  A
    run at lam <= 0 takes no columns, so its copies are joined."""
    n, c = F.shape
    reps, scale = [1] * n, [1.0] * n
    cols, shift = [], 0  # (lo, j, w): w on rows lo..lo+j-1, -j w on row lo+j
    for v, (lam, k) in sorted(runs.items()):
        reps[v], scale[v] = k + 1, 1 / math.sqrt(k + 1)
        if lam > 0:
            cols += [(v + shift, j, math.sqrt(lam / (j * (j + 1)))) for j in range(1, k + 1)]
        shift += k
    out = np.zeros((n + shift, c + len(cols)))
    out[:, :c] = np.repeat(F * np.array(scale)[:, None], reps, axis=0)
    for col, (lo, j, w) in enumerate(cols, c):
        out[lo:lo + j, col] = w
        out[lo + j, col] = -j * w
    return out


def grow_factor(M: np.ndarray, runs) -> np.ndarray:
    """The factor F whose F F^T is M M^T grown run by run, its rows in
    creation order: runs are (v, lam, k), v a row of M, and each run turns
    vertex v into v and k copies whose rows off the run are r / sqrt(k+1),
    r row v, and whose block is lam I + (|F_v|^2 - lam) J / (k+1), so the
    spectrum gains k copies of lam.  The copies go right after row v, ahead
    of any an earlier run made of v.  Runs on distinct rows grow in one
    batch; a row that repeats, as when a chain dups and then joins vertex 0,
    starts the next batch, which grows the row as the first left it.
    IndexError for a row that is not an int row of M (a bool included),
    BadParams unless k is an int >= 1 and lam is finite."""
    F = np.asarray(M, dtype=float)
    at, batch = list(range(len(F))), {}  # at[v]: where row v of M is in F
    for v, lam, k in runs:  # a chain's runs hold exact ints, which skip is_int
        if not ((type(v) is int or is_int(v)) and 0 <= v < len(at)):
            raise IndexError(f"row {v!r} is not a row of the {len(at)}-row factor")
        if not ((type(k) is int or is_int(k)) and k >= 1):
            raise BadParams(f"a run needs an int count k >= 1, not {k!r}")
        if not math.isfinite(lam):
            raise BadParams(f"a run needs a finite lam, not {lam!r}")
        if at[v] in batch:
            F = _runs_at_once(F, batch)
            at = [a + sum(bk for b, (_, bk) in batch.items() if b < a) for a in at]
            batch = {}
        batch[at[v]] = (lam, int(k))
    return _runs_at_once(F, batch) if batch else F


def _rotated_copy(A, v: int, lam, spectrum, theta: float) -> np.ndarray:
    """A with one copy of vertex v, unjoined at lam or, lam None, joined at
    the spectrum's lambda_min: Q diag(A, lam) Q^T for the (v, new)-plane
    rotation Q with first column u = (cos theta, -sin theta), so rows v and
    new are u_0 r and u_1 r off the pair, r row v of A, and the pair's block
    is lam I + (a_vv - lam) u u^T, exactly symmetric.  Checks, in order:
    `check_symmetric`'s on A (DimensionMismatch unless A is square and
    symmetric, NoConvergence for an entry that is not finite), NoConvergence
    for a spectrum entry that is not finite, BadAngle, IndexError for a v
    that is not an int vertex (a bool included), DimensionMismatch for an
    empty spectrum, then DegenerateRow or DiagonalNotEigenvalue as the
    public steps document, each within DUP_TOL * max(1, max|A|) of a full
    read."""
    A, _, peak = _validated(A)
    spectrum = np.asarray(spectrum, dtype=float)
    if not np.isfinite(spectrum).all():
        raise NoConvergence("spectrum has an entry that is not finite")
    if not 0 < theta < math.pi / 2:
        raise BadAngle("theta must lie strictly between 0 and pi/2")
    n = len(A)
    if not (is_int(v) and 0 <= v < n):
        raise IndexError(f"vertex {v!r} is not a vertex of the {n} x {n} matrix")
    if not spectrum.size:
        raise DimensionMismatch("the spectrum A is known to have is empty")
    r, tol = A[v], DUP_TOL * max(1.0, peak)
    a = float(r[v])
    if lam is None:
        lam = float(spectrum.min())
        if abs(a - lam) <= tol:
            raise DegenerateRow("a_vv equals the smallest eigenvalue; joined copy would vanish")
    else:
        lam = float(lam)
        if not math.isfinite(lam) or abs(a - lam) > tol:
            raise DiagonalNotEigenvalue(f"a_vv = {a} != {lam}")
        if np.abs(spectrum - lam).min() > tol:
            raise DiagonalNotEigenvalue(f"{lam} is not an eigenvalue")
    u, pair = np.array([math.cos(theta), -math.sin(theta)]), [v, n]
    B = np.empty((n + 1, n + 1))
    B[:n, :n] = A
    B[pair, :n] = np.multiply.outer(u, r)
    B[:n, pair] = B[pair, :n].T
    B[np.ix_(pair, pair)] = (a - lam) * np.multiply.outer(u, u) + lam * np.eye(2)
    return B


def dup_realization(A: np.ndarray, v: int, lam: float, spectrum,
                    theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A without an edge: requires a_vv = lam and lam
    in `spectrum`, the eigenvalues A is known to have (pass eigen_sym(A)),
    each within DUP_TOL * max(1, max|A|), else DiagonalNotEigenvalue.  The
    result has that spectrum plus one extra lam, the new vertex adjacent
    exactly to N(v), and a zero (v, new) entry: the (v, new)-plane rotation
    of A + [lam] (`_rotated_copy`, which lists every check)."""
    return _rotated_copy(A, v, lam, spectrum, theta)


def jdup_realization(A: np.ndarray, v: int, spectrum,
                     theta: float = math.pi / 4) -> np.ndarray:
    """Duplicate vertex v of A with an edge to the copy, appending one more
    copy of the smallest eigenvalue lambda_min of `spectrum`, the
    eigenvalues A is known to have (pass eigen_sym(A)), so q is preserved:
    the (v, new)-plane rotation of A + [lambda_min] (`_rotated_copy`, which
    lists every check).  The new off-diagonal entry is
    sin(theta)cos(theta)(lambda_min - a_vv), so a_vv within
    DUP_TOL * max(1, max|A|) of lambda_min raises DegenerateRow.  Deleting
    the new row and column gives A with row/column v scaled by cos(theta)
    (pattern-equal to A), and the (v, v) entry cos^2 a_vv + sin^2 lambda_min."""
    return _rotated_copy(A, v, None, spectrum, theta)


# ---------------------------------------------------------------------------
# orthogonality certificates for q = 2
# ---------------------------------------------------------------------------


def _repair_scales(B: np.ndarray) -> np.ndarray:
    """B with unit columns, then column 0 times sqrt(2) / min|column 0|.
    Scaling keeps the columns orthogonal.  Column 0, the first vertex of
    the creation sequence, meets every dominating row, so each off-diagonal
    dominating product is a column-0 term of size at least 2 plus the rest
    of the two rows, which for orthonormal columns has size at most 1:
    every product has |.| >= 1.  For the gate's own block, whose column 0
    is h_1, the column-0 term is exactly 2 and the products lie in [1, 3]."""
    BD = B / np.linalg.norm(B, axis=0)
    BD[:, 0] *= math.sqrt(2) / np.abs(BD[:, 0]).min()
    return BD


def _certificate_factor(B: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    """The factor M with A = M M^T in the gate's form (`_gate_factor`): D
    is the repaired block B (`_repair_scales`, every off-diagonal
    dominating product at least 1 in size), and column c's tail is
    sqrt(C^2 - |column c|^2), so every column has squared norm C^2 = max
    |column|^2 + 1."""
    BD = _repair_scales(np.asarray(B, dtype=float))
    norms = (BD * BD).sum(axis=0)
    return _gate_factor(G.creation.bits, BD, np.sqrt(float(norms.max()) + 1.0 - norms))


def orthogonal_certificate(B: np.ndarray, G: ThresholdGraph) -> np.ndarray:
    """Two-eigenvalue realization of S(G) from a column-orthogonal
    dominating-by-isolated block B.

    B's support must match the dominating-by-isolated staircase of G and its
    columns must be pairwise orthogonal to 1e-8.  One closed-form column
    weight (`_repair_scales`) makes every dominating product at least 1 in
    size, less the orthogonality slack, and at most 3 for the gate's own
    block; isolated tails equalize all column norms to a common C^2, and
    the returned Gram has spectrum {C^2 with multiplicity n-T, 0 with
    multiplicity T}.  A pattern check guards against rounding:
    InfeasibleRepair if an entry still lands off G's pattern.
    """
    B = np.asarray(B, dtype=float)
    if not verify_feasible(SupportPattern.from_graph(G), B, tol=1e-8):
        raise BadParams("block is not a column-orthogonal fill of the graph staircase")
    M = _certificate_factor(B, G)
    A = M @ M.T
    A = (A + A.T) / 2  # symmetric, and finite with B: the caller's eigensolve validates it
    if not pattern_report(A, G):
        raise InfeasibleRepair("certificate left the pattern")
    return A
