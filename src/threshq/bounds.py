"""Certified lower/upper bounds and exact values of q(G) for threshold graphs.

Lower bounds, one `_LOWER_RULES` row each: connectivity (2), the counting
witness of the column-orthogonality gate, an exact characterization of
q = 2 (3), and a cited exact value for a trace-two family (4).  The paper's
combinatorial bounds, a trace below half the order, a zero-run covering the
trace after it and a unique shortest path, each make the gate's counting
criterion fail, so its witness covers them and they are not rules here;
`sequences.unique_path_bound` stays public as the paper's lemma.  The upper
side is one certificate:
the two-eigenvalue completion the gate finds, else a spectral-transfer
citation, else a duplication chain.  Joined duplication keeps q, so G
grows from its own form and from its leading merge (`_sources`), and both
the chain planner and the transfer reach read that one rule.  Each source
takes the first seed that `_grow` fits from one q-ordered table per block
count s (`_seed_table`: the star, else the alternating seed thm00(s) and
the catalog), else the paired-column seed, and the planner keeps the
source whose built seed has the fewest distinct eigenvalues.  The paper's
general floor((s+9)/2) bound, `ub_section12`, comes on demand beside a
chain certificate; it never beats the chain, so the classifier skips it.
Every certificate re-verifies from its payload alone, under a (kind,
provenance) pair the package issues."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gram as gramlib
from .orthosearch import (
    Feasible,
    Infeasible,
    SupportPattern,
    decide_column_orthogonal,
    distinct_indices,
    is_int,
    ssp_check,
    verify_infeasible,
)
from .sequences import (
    BlockForm,
    SequenceError,
    ThresholdGraph,
    graph_from_text,
)
from .spectra import (
    DimensionMismatch,
    NoConvergence,
    eigen_sym,
    pattern_matrix,
    pattern_report,
    q_of_matrix,
    q_of_spectrum,
    spectra_agree,
    spectrum_values,
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
    ("duplication chain") and TableCitation (a spectral transfer).  payload
    carries matrices or combinatorial witnesses; verify_certificate
    re-validates without re-running any search, and rejects any other
    (kind, provenance) pair.  An upper value is the q its matrix reaches.
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
_TRANSFER = "spectral transfer across supergraphs"


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
    return Certificate("OrthoUB", 2, _ORTHO, {"matrix": A, "block": gate_result.matrix})


# ---------------------------------------------------------------------------
# upper bounds: duplication chains from catalog seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """Seed factor plus duplication schedule reaching a target sequence.

    dup_steps: (vertex index in the seed matrix, eigenvalue) repeated per
    extra zero; jdup_steps: seed index repeated per joined copy, of a
    ones-run's dominating vertex, or of vertex 0 in a leading-merge plan.
    """

    seed: gramlib.GramFactor
    dup_steps: tuple[tuple[int, float], ...]
    jdup_steps: tuple[int, ...]


# The fixed catalog seeds that follow thm00(s) in `_seed_table`, by block
# count s, in q order, as its entries; built once at import.
_CATALOG_SEEDS = {
    s: tuple((f.target.block_form.blocks, f.dup_slots, lambda f=f: f)
             for f in map(gramlib.construct_library, cids))
    for s, cids in ((2, ("thm061", "thm01", "thm10")), (3, ("thm05", "thm06", "qlt4")))
}


def _grow(have: tuple, dup_slots, bf) -> tuple[tuple, tuple] | None:
    """The dup and jdup steps growing the form with blocks `have` to block
    form bf, or None when there are none: `have` must have bf's s, no run
    longer than bf's, and one of `dup_slots` inside every zero-run that has
    to grow.  A zero-run grows by copies of its first listed slot, a
    ones-run by joined copies of its first dominating vertex."""
    if len(have) != bf.s:
        return None
    dup: list[tuple[int, float]] = []
    jdup: list[int] = []
    start = 0
    for (k0, t0), (k, t) in zip(have, bf.blocks):
        if k0 > k or t0 > t:
            return None
        if k > k0:
            slot = next((sl for sl in dup_slots if start <= sl[0] < start + k0), None)
            if slot is None:
                return None
            dup += [slot] * (k - k0)
        jdup += [start + k0] * (t - t0)
        start += k0 + t0
    return tuple(dup), tuple(jdup)


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


def _section12_m(bf) -> int | None:
    """The zero-run m of bf's paired-column seed section12_factor(s, m), or
    None when bf has s < 2 or no zero-run of length >= 2: the zero-run of
    length >= 2 with even parities on both sides of m (most column pairs),
    then smallest m.  That seed always fits: every other run of it has
    length 1, run m has length 2, and every zero is a dup slot."""
    ms = [m for m in range(1, bf.s + 1) if bf.ks[m - 1] >= 2]
    if bf.s < 2 or not ms:
        return None
    return min(ms, key=lambda m: ((m - 1) % 2 + (bf.s - m) % 2, m))


def _section12_plan(bf) -> ChainPlan | None:
    """The paired-column plan, or None when bf has no paired-column seed
    (see `_section12_m`); that seed always fits."""
    if (m := _section12_m(bf)) is None:
        return None
    seed = gramlib.section12_factor(bf.s, m)
    return ChainPlan(seed, *_grow(seed.target.block_form.blocks, seed.dup_slots, bf))


def _seed_table(bf) -> tuple:
    """The prebuilt seeds with bf's s, in q order, as (blocks, dup_slots,
    build) entries, so a seed's fit is read before build() makes it: the
    star for s = 1; otherwise the alternating seed thm00(s), blocks (0,1)^s
    and one dup slot, vertex 0 with diagonal s^2 - s + 1, then
    `_CATALOG_SEEDS[s]`.  Every entry has q <= 4 and every paired-column
    seed q >= 4, so the first entry that fits bf is its least-q seed."""
    s, k = bf.s, bf.ks[0]
    if s == 1:
        return ((((k, 1),), (), lambda: gramlib.construct_library("star", k=k)),)
    return ((((1, 1),) * s, ((0, float(s * s - s + 1)),),
             lambda: gramlib.construct_library("thm00", t=s)), *_CATALOG_SEEDS.get(s, ()))


def _seed_plan(bf) -> ChainPlan:
    """The plan of bf's first fitting seed: the first `_seed_table` entry
    that `_grow` fits to bf, else the paired-column plan.  One always fits:
    the star fits every s = 1 form, thm00(s) every form whose zero-runs
    after the first have length 1, and any other form has a later zero-run
    of length >= 2, so a paired-column seed."""
    for blocks, dup_slots, build in _seed_table(bf):
        if (steps := _grow(blocks, dup_slots, bf)) is not None:
            return ChainPlan(build(), *steps)
    return _section12_plan(bf)


def _joined(plan: ChainPlan, t: int) -> ChainPlan:
    """plan followed by t joined copies of vertex 0: a source's plan
    carried to G (see `_sources`)."""
    return ChainPlan(plan.seed, plan.dup_steps, plan.jdup_steps + (0,) * t)


def _chain_plan(bf) -> ChainPlan:
    """The duplication chain's plan: the source whose first fitting seed
    has the fewest distinct eigenvalues, G's own form on a tie, carried to
    G.  Every step keeps q, so the seed's q is the chain's.  Each source's
    seed is built once and its q read off its expected spectrum; a
    seed-table seed is built only once it fits."""
    plans = [_joined(_seed_plan(src), t) for src, t in _sources(bf)]
    return min(plans, key=lambda plan: len(plan.seed.expected_spectrum))


def _chain_steps(plan: ChainPlan) -> tuple[str, ...]:
    """A plan's step labels, as a certificate's `chain` records them; they
    name the seed and every duplication, so they determine the matrix."""
    return ((f"seed:{plan.seed.construction_id}{plan.seed.params or ''}",)
            + tuple(f"dup({v},{lam:g})" for v, lam in plan.dup_steps)
            + tuple(f"jdup({v})" for v in plan.jdup_steps))


def run_chain(plan: ChainPlan) -> tuple[np.ndarray, np.ndarray]:
    """Realize a plan, with the spectrum it carries.

    One gramlib.ChainGrower holds the seed's gram and its expected spectrum
    in a buffer sized for the whole chain, and each step grows the active
    leading block by one row and column in place, with O(1) array work
    besides the rotation: its check scale comes from the grower's bracket,
    and the carried spectrum is never scanned.  Each copy is appended, so
    plan indices keep naming seed vertices, and belongs right after the
    vertex it copies, inside that vertex's run (a joined copy of vertex 0
    opens (0, 1, ...)); one permutation at the end puts the matrix in the
    creation order of the sequence the plan fits.  The spectrum gains lam
    per dup step and lambda_min per jdup step, so no step eigensolves."""
    seed = plan.seed
    grower = gramlib.ChainGrower(gramlib.gram(seed), spectrum_values(seed.expected_spectrum),
                                 len(plan.dup_steps) + len(plan.jdup_steps))
    order = list(range(seed.n))
    for v, lam in plan.dup_steps:
        grower.dup(v, lam)
        order.insert(order.index(v) + 1, grower.n - 1)
    for v in plan.jdup_steps:
        grower.jdup(v)
        order.insert(order.index(v) + 1, grower.n - 1)
    return grower.buf.take(order, axis=0).take(order, axis=1), np.array(grower.spectrum)


def _checked(A: np.ndarray, spectrum: np.ndarray, G: ThresholdGraph) -> int:
    """q of a chain matrix A, once checked to lie in S(G) and to have the
    spectrum its chain carried.  This is the chain's one eigensolve, which
    validates A for the pattern test too: every step is an exact
    similarity, so the match proves each intermediate
    spectrum, and with it every step's check against the carried one.
    Those checks read no spectrum and no matrix in full: the grower decides
    each against DUP_TOL * max(1, max|A|) through its bracket
    max(1, |a_vv|) <= scale <= max(1, U), U its running bound on max|A|,
    and reads the exact scale off the buffer only for a gap between the
    two ends, so every step decides as a full read would."""
    eigs = eigen_sym(A)
    if not pattern_report(A, G):
        raise SelfCheckError(f"chain landed on another graph than {G.creation.text}")
    if not spectra_agree(eigs, spectrum):
        raise SelfCheckError("chain lost the spectrum it carried")
    return q_of_spectrum(eigs)


def _chain_cert(G: ThresholdGraph, plan: ChainPlan) -> Certificate:
    """The realized plan as a checked certificate of the q it reaches:
    ConstructionUB for a bare seed, DupChainUB once a step grows it."""
    A, spectrum = run_chain(plan)
    steps = _chain_steps(plan)
    kind = "ConstructionUB" if len(steps) == 1 else "DupChainUB"
    return Certificate(kind, _checked(A, spectrum, G), _CHAIN, {"matrix": A, "chain": steps})


def chain_certificate(G: ThresholdGraph) -> Certificate:
    """Upper bound from the duplication chain: the first fitting seed of G's
    own form or of its leading merge, whichever has the smaller q, where a
    source's first fitting seed is the first entry of its q-ordered
    `_seed_table` that fits it, else its paired-column seed.  The chain
    lands in G's creation order by construction; it is checked once, for
    pattern and spectrum."""
    return _chain_cert(G, _chain_plan(G.block_form))


# ---------------------------------------------------------------------------
# upper bounds: spectral-transfer citations
# ---------------------------------------------------------------------------


# Order-8 targets whose q <= 3 comes from a verified matrix with the strong
# spectral property whose pattern embeds in the target: vertex i of the
# matrix goes to vertex embedding[i] of the base.  Each base maps to its
# block form, parsed once at import, and its embedding.
_TRANSFER_BASES = {
    base: (graph_from_text(base).block_form.blocks, emb) for base, emb in (
        ("00100101", (2, 0, 1, 5, 3, 4, 7, 6)),
        ("00010011", (3, 0, 1, 7, 2, 4, 6, 5)),
    )
}


def _transfer_matrix() -> np.ndarray:
    """The transfer bases' matrix, built and checked once: it must keep the
    strong spectral property and q = 3."""
    A = gramlib.gram(gramlib.construct_library("prop_a15a19"))
    if not ssp_check(A).is_ssp or q_of_matrix(A) != 3:
        raise SelfCheckError("transfer matrix lost the strong spectral property")
    A.setflags(write=False)
    return A


_TRANSFER_MATRIX = _transfer_matrix()


def _jdup_reaches(base: tuple, bf) -> bool:
    """Do joined duplications grow the form with blocks `base` to block
    form bf?  Exactly when `base` covers one of bf's sources run by run with
    no zero-run to grow: `_grow` with no dup slot."""
    return any(_grow(base, (), src) is not None for src, _ in _sources(bf))


def transfer_certificate(G: ThresholdGraph) -> Certificate | None:
    """q <= 3 when a transfer base reaches G by joined duplications, which
    preserve q."""
    for base, (blocks, emb) in _TRANSFER_BASES.items():
        if _jdup_reaches(blocks, G.block_form):
            return Certificate("TableCitation", 3, _TRANSFER,
                               {"matrix": _TRANSFER_MATRIX, "embedding": emb, "base": base})
    return None


# ---------------------------------------------------------------------------
# the general upper bound
# ---------------------------------------------------------------------------


def ub_section12(G: ThresholdGraph) -> tuple[int, Certificate]:
    """The paper's general bound q(G) <= floor((s+9)/2), beside the chain
    certificate that witnesses it: a "duplication chain" whose value is the
    q its matrix reaches, never above the bound.

    The chain is the paired-column chain when s >= 2 and a zero-run has
    length >= 2, else the first seed-table chain, alternating or
    complete-split (q <= 3).  classify_q does not call this: its chain grows a seed-table
    seed with q <= 4 or a paired-column seed of G or of its leading merge,
    whose s is one less, so it never exceeds this bound, which is at least
    5, and the bound never sets the upper side."""
    bf = G.block_form
    bound = (bf.s + 9) // 2
    cert = _chain_cert(G, _section12_plan(bf) or _seed_plan(bf))
    if cert.value > bound:
        raise SelfCheckError(f"chain reached q = {cert.value} > {bound}")
    return bound, cert


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def classify_q(G: ThresholdGraph) -> QBound:
    """Certified interval for q(G); exact when the sides meet.

    The upper side is one certificate: the orthogonal completion when the
    gate is feasible, else a transfer citation whose base reaches G, else
    the duplication chain.  The order is exact.  OrthoUB's value 2 is the
    lower side's floor.  A gate with no completion leaves its counting
    witness, so the lower side is already 3, the transfer's value, and no
    chain can beat a transfer that applies.  The one chain is realized
    once and lands on G by construction.  The general floor((s+9)/2) bound
    is not built (see `ub_section12`).
    """
    if not G.connected:
        raise ValueError("classify_q needs a connected graph")
    gate = ortho_gate(G)
    lower_certs = _lower_certificates(G, gate)
    upper = q2_certificate(G, gate) or transfer_certificate(G) or chain_certificate(G)
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


def _transfer_base(payload: dict) -> ThresholdGraph | None:
    """The connected graph the payload's `base` sequence names."""
    try:
        base = graph_from_text(payload.get("base"))
    except (TypeError, SequenceError):
        return None
    return base if base.connected else None


_MATRIX_CERTS = {("OrthoUB", _ORTHO), ("ConstructionUB", _CHAIN), ("DupChainUB", _CHAIN)}


def _upper_ok(G: ThresholdGraph, cert: Certificate) -> bool:
    """The check of an upper certificate under one of the four (kind,
    provenance) pairs the package issues: its matrix has q = value and lies
    in S(G), or, for a transfer citation, has the SSP, embeds in the base,
    and the base grows to G by joined duplications.  Its eigensolve first
    validates the matrix, raising DimensionMismatch or NoConvergence."""
    if (cert.kind, cert.provenance) in _MATRIX_CERTS:
        A = _payload_matrix(cert.payload, G.n)
        return (A is not None and q_of_spectrum(eigen_sym(A)) == cert.value
                and bool(pattern_report(A, G)))
    if (cert.kind, cert.provenance) == ("TableCitation", _TRANSFER):
        base = _transfer_base(cert.payload)
        if base is None:
            return False
        A = _payload_matrix(cert.payload, base.n)
        emb = cert.payload.get("embedding")
        if A is None or not (distinct_indices(emb, base.n) and len(emb) == base.n):
            return False
        q_ok = q_of_matrix(A) == cert.value
        edges_ok = base.adjacency[np.ix_(emb, emb)][np.triu(pattern_matrix(A), 1)].all()
        chain_ok = _jdup_reaches(base.block_form.blocks, G.block_form)
        return q_ok and edges_ok and chain_ok and ssp_check(A).is_ssp
    return False


def verify_certificate(G: ThresholdGraph, cert: Certificate) -> bool:
    """Re-validate a certificate from its payload alone; a bool, False and
    never an error when the payload is malformed."""
    if not (isinstance(cert.payload, dict) and is_int(cert.value)):
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
    """Every certificate re-validates and the interval is consistent; False
    when either side has no certificate."""
    if not (qb.lower_certs and qb.upper_certs and 1 <= qb.lower <= qb.upper <= G.n):
        return False
    certs_ok = all(verify_certificate(G, c) for c in qb.lower_certs + qb.upper_certs)
    sides_ok = (qb.lower == max(c.value for c in qb.lower_certs)
                and qb.upper == min(c.value for c in qb.upper_certs))
    return certs_ok and sides_ok


def classify_text(text: str) -> QBound:
    return classify_q(graph_from_text(text))
