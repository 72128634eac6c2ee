"""Certified lower/upper bounds and exact values of q(G) for threshold graphs.

Lower bounds, one `_LOWER_RULES` row each: connectivity (2), the counting
witness of the column-orthogonality gate, an exact characterization of
q = 2 (3), and a cited exact value for a trace-two family (4).  The paper's
combinatorial bounds, a trace below half the order, a zero-run covering the
trace after it and a unique shortest path, each make the gate's counting
criterion fail, so its witness covers them and they are not rules here;
`sequences.unique_path_bound` stays public as the paper's lemma.  The upper
side is one certificate: the two-eigenvalue completion the gate finds, else
a duplication chain.  Joined duplication keeps q, so G grows from its own
form and from its leading merge (`_sources`).  A plan is a seed and its
runs (v, lam, k), k copies of seed vertex v at lam, or joined when lam is
None: one per zero-run or ones-run that grows, and one joined run of
vertex 0 from a leading merge.  `_fit` takes the first seed that `_grow`
fits: for each source, from one q-ordered table per block count s
(`_seed_table`: the star, else the alternating seed thm00(s) and the
prebuilt seeds, the liberated prop_a15a19 seeds among them), then the
paired-column seed.  Every seed is first a descriptor, a `Seed` of its
blocks, dup slots and q, so the planner compares the sources on data and
keeps the one whose seed has the fewest distinct eigenvalues; it builds
that seed alone, since a paired-column seed's q is a closed form
(`gram.section12_q`).  The paper's general floor((s+9)/2) bound,
`ub_section12`, which tries the paired-column seed first, and the SSP
supergraph lemma, `transfer_certificate`, are stated on that one planner
and come on demand; the classifier calls neither.  Every certificate
re-verifies from its payload alone, under a (kind, provenance) pair the
package issues; every upper certificate is a matrix whose q is its value
and which lies in S(G)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import gram as gramlib
from .orthosearch import (
    Feasible,
    Infeasible,
    SupportPattern,
    decide_column_orthogonal,
    is_int,
    verify_infeasible,
)
from .sequences import BlockForm, ThresholdGraph, graph_from_text
from .spectra import (
    DimensionMismatch,
    NoConvergence,
    check_matrix,
    q_of_matrix,
    spectra_agree,
)


class SelfCheckError(AssertionError):
    """A certificate failed the re-check made where it is built.

    Raised explicitly rather than by `assert`, so the checks also run under
    `python -O`.
    """


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable witness for one side of a bound.

    kinds: ConnectedLB, Compare1LB (the gate's counting witness) and
    TableCitation (the trace-two value) below; above, OrthoUB (provenance
    "column-orthogonal completion"), ConstructionUB and DupChainUB
    ("duplication chain", liberated seeds' chains included).  payload carries
    matrices or combinatorial witnesses; verify_certificate re-validates
    without re-running any search, and rejects any other (kind,
    provenance) pair.  An upper value is the q its matrix reaches.
    """

    kind: str
    value: int
    provenance: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class QBound:
    """Interval [lower, upper] for q(G) with certificates for both sides."""

    lower: int
    upper: int
    lower_certs: tuple[Certificate, ...]
    upper_certs: tuple[Certificate, ...]

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        if self.exact:
            return f"q = {self.lower} (exact)"
        return f"q in [{self.lower}, {self.upper}]"


# The provenance of each kind of upper certificate the package issues.
_ORTHO = "column-orthogonal completion"
_CHAIN = "duplication chain"


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------


def _connected(G: ThresholdGraph, gate) -> dict | None:
    return {} if G.connected else None


def _gate_witness(G: ThresholdGraph, gate) -> dict | None:
    return {"columns": gate.columns, "rows": gate.rows} if isinstance(gate, Infeasible) else None


def _trace_two(G: ThresholdGraph, gate) -> dict | None:
    """Exact value 4 for the trace-2 family (0^k1, 1, 0^k2, 1) with k1 >= 3
    and k2 >= 2; the supporting argument is cited, so the certificate's
    checkable content is the block shape itself."""
    bf = G.block_form
    fires = bf.s == 2 and bf.ts == (1, 1) and bf.ks[0] >= 3 and bf.ks[1] >= 2
    return {"ks": bf.ks, "ts": bf.ts} if fires else None


def _fires(find):
    """The check of a rule whose payload only restates G: the rule fires."""
    return lambda G, payload: find(G, None) is not None


# Every lower-bound rule, in certificate order: (kind, value, provenance,
# find, check).  find(G, gate) returns a certificate payload, or None when
# the rule does not fire; check(G, payload) re-validates a payload, and is
# False, never an error, on a malformed one.
_LOWER_RULES = (
    ("ConnectedLB", 2, "connected graph", _connected, _fires(_connected)),
    ("Compare1LB", 3, "orthogonality gate counting witness", _gate_witness,
     lambda G, payload: verify_infeasible(SupportPattern.from_graph(G), Infeasible(
         payload.get("columns"), payload.get("rows")))),
    ("TableCitation", 4, "trace-two family exact value", _trace_two, _fires(_trace_two)),
)
_LOWER_CHECKS = {(kind, provenance): (value, check)
                 for kind, value, provenance, _, check in _LOWER_RULES}


def _lower_certificates(G: ThresholdGraph, gate) -> list[Certificate]:
    return [Certificate(kind, value, provenance, payload)
            for kind, value, provenance, find, _ in _LOWER_RULES
            if (payload := find(G, gate)) is not None]


# ---------------------------------------------------------------------------
# upper bounds: orthogonality certificate (q = 2)
# ---------------------------------------------------------------------------


def ortho_gate(G: ThresholdGraph):
    return decide_column_orthogonal(SupportPattern.from_graph(G))


def q2_certificate(G: ThresholdGraph, gate_result=None) -> Certificate | None:
    if gate_result is None:
        gate_result = ortho_gate(G)
    if not isinstance(gate_result, Feasible):
        return None
    A = gramlib.orthogonal_certificate(gate_result.matrix, G)
    if q_of_matrix(A) != 2:
        raise SelfCheckError("orthogonal completion does not have two eigenvalues")
    return Certificate("OrthoUB", 2, _ORTHO, {"matrix": A})


# ---------------------------------------------------------------------------
# upper bounds: duplication chains from catalog seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """Seed factor plus the runs that grow it to a target sequence.

    runs: (v, lam, k), k copies of seed vertex v, unjoined at the eigenvalue
    lam, or, lam None, joined at the carried lambda_min.  Dup runs come
    first, one per zero-run that grows, then jdup runs, one per ones-run
    that grows and one of vertex 0 in a leading-merge plan.
    """

    seed: gramlib.GramFactor
    runs: tuple[tuple[int, float | None, int], ...]


class Seed(NamedTuple):
    """A seed as data: the blocks of its block form, its dup slots and its
    q, all read before build() makes it; a paired-column seed's q is
    `gramlib.section12_q`'s closed form."""

    blocks: tuple[tuple[int, int], ...]
    dup_slots: tuple[tuple[int, float], ...]
    q: int
    build: Callable[[], gramlib.GramFactor]


# The prebuilt seeds that follow thm00(s) in `_seed_table`, built once at
# import from one flat tuple of (construction id, params): the fixed catalog
# seeds and the liberated prop_a15a19 seeds, each in S(base) with q = 3 and
# no dup slot (`gramlib._liberated`).  Grouped by their own s and stably
# sorted by q, each group is in q order by construction.
_PREBUILT = sorted((gramlib.construct_library(cid, **params) for cid, params in (
    ("thm061", {}), ("thm01", {}), ("thm10", {}), ("thm05", {}), ("thm06", {}), ("qlt4", {}),
    *(("prop_a15a19", {"base": base}) for base in gramlib.A15A19_BASES))),
    key=lambda f: (f.target.block_form.s, len(f.expected_spectrum)))
_CATALOG_SEEDS = {s: tuple(Seed(f.target.block_form.blocks, f.dup_slots, len(f.expected_spectrum),
                                lambda f=f: f) for f in group)
                  for s, group in itertools.groupby(_PREBUILT, key=lambda f: f.target.block_form.s)}


def _grow(have: tuple, dup_slots, bf) -> tuple | None:
    """The runs growing the form with blocks `have` to block form bf, or
    None when there are none: `have` must have bf's s, no run longer than
    bf's, and one of `dup_slots` inside every zero-run that has to grow.  A
    zero-run grows by copies of its first listed slot, a ones-run by joined
    copies of its first dominating vertex."""
    if len(have) != bf.s:
        return None
    dup, jdup = [], []
    start = 0
    for (k0, t0), (k, t) in zip(have, bf.blocks):
        if k0 > k or t0 > t:
            return None
        if k > k0:
            for v, lam in dup_slots:
                if start <= v < start + k0:
                    break
            else:
                return None
            dup.append((v, lam, k - k0))
        if t > t0:
            jdup.append((start + k0, None, t - t0))
        start += k0 + t0
    return (*dup, *jdup)


def _sources(bf) -> tuple[tuple[BlockForm, int], ...]:
    """The forms G grows from by joined duplication, each with the number
    of joined copies of vertex 0 that reach G from it: G's own form, with
    none, and, when G = (0, 1^t, 0^k, ...) has s >= 2, its leading merge
    (0^(1+k), ...), with t.  A joined copy of vertex 0, when a zero follows
    it, splits (0^(1+k), ...) into (0, 1, 0^k, ...); a joined copy of a
    dominating vertex lengthens its ones-run, which `_grow` covers, since a
    chain reads only the zero-runs and s and a shorter ones-run never fits
    a better seed."""
    if bf.s < 2 or bf.ks[0] != 1:
        return ((bf, 0),)
    (_, t), (k, t2) = bf.blocks[:2]
    return (bf, 0), (BlockForm(((1 + k, t2),) + bf.blocks[2:]), t)


def _paired_column(bf):
    """Yield bf's paired-column seed section12_factor(s, m) as data, when
    bf has s >= 2 and a zero-run of length >= 2: m is such a zero-run with
    even parities on both sides of it (most column pairs), then the
    smallest.  Its form and slots (`gramlib.section12_form`) are read only
    once the seed is reached, and build() makes it from these slots; its q
    is `gramlib.section12_q`.  It always fits: every other run of it has
    length 1, run m has length 2, and every zero is a dup slot."""
    s, ks = bf.s, bf.ks
    ms = [m for m in range(1, s + 1) if ks[m - 1] >= 2]
    if s >= 2 and ms:
        m = min(ms, key=lambda m: ((m - 1) % 2 + (s - m) % 2, m))
        blocks, dup_slots = gramlib.section12_form(s, m)
        yield Seed(blocks, dup_slots, gramlib.section12_q(s, m),
                   lambda: gramlib._section12_seed(s, m, dup_slots))


def _seed_table(bf) -> tuple[Seed, ...]:
    """The prebuilt seeds with bf's s, in q order, each a `Seed` whose form,
    slots and q are read before build() makes it: the star for s = 1, q = 3
    (2 when k = 1, spectrum 0, k + 1); otherwise the alternating seed
    thm00(s), blocks (0,1)^s, q = 3 and its one dup slot, vertex 0 at
    `gramlib.thm00_lambda(s)`, then `_CATALOG_SEEDS[s]`, each with its
    expected spectrum's length, the liberated seeds among them.  Every
    entry has q <= 4 and every paired-column seed q >= 4
    (`gramlib.section12_q`), so the first entry that fits bf is its
    least-q seed."""
    s, k = bf.s, bf.ks[0]
    if s == 1:
        return (Seed(((k, 1),), (), 2 if k == 1 else 3,
                     lambda: gramlib.construct_library("star", k=k)),)
    return (Seed(((1, 1),) * s, ((0, gramlib.thm00_lambda(s)),), 3,
                 lambda: gramlib.construct_library("thm00", t=s)), *_CATALOG_SEEDS.get(s, ()))


def _fit(bf, seeds) -> tuple[Seed, tuple] | None:
    """The first of `seeds` that `_grow` fits to bf, unbuilt, with the runs
    that grow it to bf, or None when none fits."""
    for seed in seeds:
        if (runs := _grow(seed.blocks, seed.dup_slots, bf)) is not None:
            return seed, runs
    return None


def _first_fit(bf) -> tuple[Seed, tuple]:
    """bf's first fitting seed, unbuilt, with its runs: the first
    `_seed_table` entry that fits, else the paired-column seed.  One always
    fits: the star fits every s = 1 form, thm00(s) every form whose
    zero-runs after the first have length 1, and any other form has a later
    zero-run of length >= 2, so a paired-column seed."""
    return _fit(bf, itertools.chain(_seed_table(bf), _paired_column(bf)))


def _chain_plan(bf) -> ChainPlan:
    """The duplication chain's plan: the source whose first fitting seed
    has the fewest distinct eigenvalues, G's own form on a tie, carried to
    G by a run of joined copies of vertex 0.  Every run keeps q, so the
    seed's q is the chain's.  The sources are compared on their `Seed`
    descriptors, whose q is known unbuilt, so only the winner is built,
    once."""
    seed, runs, t = min(((*_first_fit(src), t) for src, t in _sources(bf)),
                        key=lambda fit: fit[0].q)
    return ChainPlan(seed.build(), runs + ((0, None, t),) if t else runs)


def _chain_steps(plan: ChainPlan) -> tuple[str, ...]:
    """A plan's step labels, as a certificate's `chain` records them: the
    seed's, then one per copy, so they determine the matrix."""
    steps = [f"seed:{plan.seed.construction_id}{plan.seed.params or ''}"]
    for v, lam, k in plan.runs:
        steps += [f"jdup({v})" if lam is None else f"dup({v},{lam:g})"] * k
    return tuple(steps)


def run_chain(plan: ChainPlan) -> tuple[np.ndarray, np.ndarray]:
    """Realize a plan, with the spectrum it carries: the seed's values, lam
    per dup copy and lambda_min per joined copy.  `gramlib.grow_factor`
    grows the seed's factor by the plan's runs, a joined run at lambda_min,
    placing each run's copies right after the seed vertex they copy, so F's
    rows are already in creation order (a joined copy of vertex 0 opens
    (0, 1, ...)) and the matrix is the one product F F^T."""
    seed = plan.seed
    carried = [v for v, mult in seed.expected_spectrum for _ in range(mult)]
    lam_min = min(carried + [lam for _, lam, _ in plan.runs if lam is not None])
    runs = [(v, lam_min if lam is None else lam, k) for v, lam, k in plan.runs]
    carried += [lam for _, lam, k in runs for _ in range(k)]
    F = gramlib.grow_factor(seed.M, runs)
    return F @ F.T, np.array(carried, dtype=float)


def _checked(A: np.ndarray, spectrum: np.ndarray, G: ThresholdGraph, q: int) -> int:
    """q of a chain matrix A, once checked to lie in S(G), to have the
    spectrum its chain carried and to keep its seed's q.  `check_matrix`
    validates A once and makes the chain's one eigensolve.  Every run is an
    exact similarity, so the spectrum match proves the factor, and the q
    match that every lam the plan carried was already an eigenvalue, as the
    planner's comparison of seeds assumes."""
    eigs, got, report = check_matrix(A, G)
    if not report:
        raise SelfCheckError(f"chain landed on another graph than {G.creation.text}")
    if not spectra_agree(eigs, spectrum):
        raise SelfCheckError("chain lost the spectrum it carried")
    if got != q:
        raise SelfCheckError(f"chain reached q = {got}; its seed's q is {q}")
    return q


def _chain_cert(G: ThresholdGraph, plan: ChainPlan) -> Certificate:
    """The realized plan as a checked certificate of the q it reaches:
    ConstructionUB for a bare seed, DupChainUB once a step grows it."""
    A, spectrum = run_chain(plan)
    steps = _chain_steps(plan)
    kind = "ConstructionUB" if len(steps) == 1 else "DupChainUB"
    q = _checked(A, spectrum, G, len(plan.seed.expected_spectrum))
    return Certificate(kind, q, _CHAIN, {"matrix": A, "chain": steps})


def chain_certificate(G: ThresholdGraph) -> Certificate:
    """Upper bound from the duplication chain of `_chain_plan`, which lands
    in G's creation order by construction and is checked once."""
    return _chain_cert(G, _chain_plan(G.block_form))


# ---------------------------------------------------------------------------
# the paper's upper bounds, stated on the one planner
# ---------------------------------------------------------------------------


def transfer_certificate(G: ThresholdGraph) -> Certificate | None:
    """q <= 3 by the SSP supergraph lemma, when joined duplications, which
    keep q, grow a liberated prop_a15a19 seed to G: G's chain certificate
    when `_chain_plan` grows one of those seeds, else None.  classify_q
    does not call this: its chain is the same."""
    plan = _chain_plan(G.block_form)
    return _chain_cert(G, plan) if plan.seed.construction_id == "prop_a15a19" else None


def ub_section12(G: ThresholdGraph) -> tuple[int, Certificate]:
    """The paper's general bound q(G) <= floor((s+9)/2), beside the chain
    certificate that witnesses it, whose value, the q its matrix reaches,
    never exceeds the bound: the paired-column chain when s >= 2 and a
    zero-run has length >= 2, else the first seed-table chain (q <= 3).
    classify_q does not call this: its chain grows a seed-table seed with
    q <= 4 or a paired-column seed of G or of its leading merge, whose s is
    one less, so it never exceeds this bound, which is at least 5."""
    bf = G.block_form
    bound = (bf.s + 9) // 2
    seed, runs = _fit(bf, itertools.chain(_paired_column(bf), _seed_table(bf)))
    cert = _chain_cert(G, ChainPlan(seed.build(), runs))
    if cert.value > bound:
        raise SelfCheckError(f"chain reached q = {cert.value} > {bound}")
    return bound, cert


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def classify_q(G: ThresholdGraph) -> QBound:
    """Certified interval for q(G); exact when the sides meet.

    The upper side is one certificate: the orthogonal completion when the
    gate is feasible, else the duplication chain, realized once and landing
    on G by construction.  The general floor((s+9)/2) bound and the
    spectral transfer are not built apart from it (see `ub_section12` and
    `transfer_certificate`).
    """
    if not G.connected:
        raise ValueError("classify_q needs a connected graph")
    gate = ortho_gate(G)
    lower_certs = _lower_certificates(G, gate)
    upper = q2_certificate(G, gate) or chain_certificate(G)
    return QBound(max(c.value for c in lower_certs), upper.value,
                  tuple(lower_certs), (upper,))


# ---------------------------------------------------------------------------
# certificate re-verification
# ---------------------------------------------------------------------------


def _payload_matrix(payload: dict, n: int) -> np.ndarray | None:
    """The payload's matrix when it is an n x n array of numbers."""
    try:
        A = np.asarray(payload["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    return A if A.shape == (n, n) else None


_MATRIX_CERTS = {("OrthoUB", _ORTHO), ("ConstructionUB", _CHAIN), ("DupChainUB", _CHAIN)}


def _upper_ok(G: ThresholdGraph, cert: Certificate) -> bool:
    """The check of an upper certificate under one of the three (kind,
    provenance) pairs the package issues: its matrix has q = value and lies
    in S(G), both read by one `check_matrix`, which raises DimensionMismatch
    or NoConvergence on a matrix it cannot validate."""
    if (cert.kind, cert.provenance) not in _MATRIX_CERTS:
        return False
    A = _payload_matrix(cert.payload, G.n)
    if A is None:
        return False
    _, q, report = check_matrix(A, G)
    return q == cert.value and bool(report)


def verify_certificate(G: ThresholdGraph, cert: Certificate) -> bool:
    """Re-validate a certificate from its payload alone; a bool, False and
    never an error when cert or its payload is malformed."""
    if not (isinstance(cert, Certificate) and isinstance(cert.kind, str)
            and isinstance(cert.provenance, str) and isinstance(cert.payload, dict)
            and is_int(cert.value)):
        return False
    rule = _LOWER_CHECKS.get((cert.kind, cert.provenance))
    if rule is not None:
        value, check = rule
        return bool(cert.value == value and check(G, cert.payload))
    try:
        return bool(_upper_ok(G, cert))
    except (DimensionMismatch, NoConvergence):
        return False


def verify_qbound(G: ThresholdGraph, qb: QBound) -> bool:
    """Every certificate re-validates and the interval is consistent; False,
    never an error, when qb is malformed or either side has no certificate."""
    if not (isinstance(qb, QBound) and is_int(qb.lower) and is_int(qb.upper)
            and isinstance(qb.lower_certs, tuple) and isinstance(qb.upper_certs, tuple)
            and qb.lower_certs and qb.upper_certs and 1 <= qb.lower <= qb.upper <= G.n):
        return False
    if not all(verify_certificate(G, c) for c in qb.lower_certs + qb.upper_certs):
        return False
    return (qb.lower == max(c.value for c in qb.lower_certs)
            and qb.upper == min(c.value for c in qb.upper_certs))


def classify_text(text: str) -> QBound:
    return classify_q(graph_from_text(text))
