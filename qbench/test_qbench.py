"""Tests of the benchmark's own parts: generators, the q = 2 criterion, memo
hygiene and the layer tracer.  Run with `python -m pytest qbench`."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import threshq as tq  # noqa: E402

import hostspeed  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic(name):
    for seed in (0, 1, 17):
        assert workloads.make(name, seed) == workloads.make(name, seed)


def test_census_is_enumerate_connected_order():
    want = [s.text for s in tq.enumerate_connected(workloads.CENSUS_ORDER)]
    assert workloads.census(5) == want


def test_long_fixes_the_ones_run_multiset_and_balances_the_last_run():
    a, b = workloads.long(1), workloads.long(2)
    assert a != b
    for bits in a:
        assert len(bits) == workloads.LONG_ORDER
        assert sorted(t for _, t in workloads.runs(bits)) == sorted(workloads.LONG_ONES_RUNS)
    lasts = [workloads.runs(bits)[-1][1] for bits in a]
    assert {lasts.count(t) for t in set(workloads.LONG_ONES_RUNS)} == {len(a) // 3}
    leads = [workloads.runs(bits)[0] for bits in a]
    assert sorted(t for k, t in leads if k == 1) == [1, 2, 3]


def test_q2_set_is_fixed_and_the_seed_only_orders_it():
    a, b = workloads.q2(1), workloads.q2(2)
    assert a != b and sorted(a) == sorted(b)
    assert len(a) == workloads.Q2_COUNT
    assert all(workloads.q2_counting(bits) and len(bits) in workloads.Q2_ORDERS for bits in a)


def test_q2_counting_matches_the_gate_up_to_order_10():
    for n in range(2, 11):
        for seq in tq.enumerate_connected(n):
            out = tq.decide_column_orthogonal(tq.SupportPattern.from_graph(tq.build_graph(seq)))
            assert isinstance(out, (tq.Feasible, tq.Infeasible)), seq.text
            assert workloads.q2_counting(seq.text) == isinstance(out, tq.Feasible), seq.text


def test_memos_are_found_by_scanning_and_cleared():
    memos = probe.find_memos(probe.package_modules(tq))
    assert all(m.__module__.startswith("threshq.") for m in memos)
    tq.classify_text("00101011")
    probe.clear_memos(memos)
    probe.require_empty(memos)


def test_require_empty_names_a_full_memo():
    import functools

    @functools.lru_cache
    def memo(x):
        return x

    memo(1)
    with pytest.raises(RuntimeError, match="memo"):
        probe.require_empty([memo])


def test_tracer_wraps_every_binding_and_restores_it():
    modules = probe.package_modules(tq)
    before = [dict(vars(m)) for m in modules]
    tracer = probe.LayerTracer(modules)
    tracer.install()
    try:
        for name in ("threshq", "threshq.spectra", "threshq.gram", "threshq.orthosearch"):
            assert hasattr(vars(sys.modules[name])["eigen_sym"], "__wrapped__"), name
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert tracer.missing == []


def _traced_counts(memos, modules, text):
    probe.clear_memos(memos)
    tracer = probe.LayerTracer(modules)
    tracer.install()
    try:
        qb = tq.classify_text(text)
        assert tq.verify_qbound(tq.graph_from_text(text), qb)
    finally:
        tracer.uninstall()
    probe.clear_memos(memos)
    summary = probe.summarize(tracer.spans)
    return qb, {k: v for k, v in summary.items() if not k.endswith("_s")}


def test_traced_call_counts_repeat_and_answers_do_not_change():
    modules = probe.package_modules(tq)
    memos = probe.find_memos(modules)
    text = "0011010010111"
    probe.clear_memos(memos)
    plain = tq.classify_text(text)
    qb1, c1 = _traced_counts(memos, modules, text)
    qb2, c2 = _traced_counts(memos, modules, text)
    assert c1 == c2
    assert (qb1.lower, qb1.upper) == (qb2.lower, qb2.upper) == (plain.lower, plain.upper)
    assert c1["bounds.classify.calls"] == 1 and c1["spectra.eigensolve.calls"] > 0


def test_self_time_excludes_children():
    spans = [("bounds.chain", -1, 0.0, 1.0, None), ("gram.dup", 0, 0.2, 0.5, None)]
    out = probe.summarize(spans)
    assert out["bounds.chain.self_s"] == pytest.approx(0.7)
    assert out["gram.dup.self_s"] == pytest.approx(0.3)


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([float(i) for i in range(99)]) == (98.0, 100.0)


def test_host_speed_is_one_at_the_reference_times_and_scales_call_times():
    speed = hostspeed.Probe()
    for name, ref in hostspeed.REFERENCE_S.items():
        speed.samples[name] = [ref, 2 * ref, 2 * ref]
    assert speed.speed() == pytest.approx(0.5)
    p = run.Pass(1.0, [0.2, 0.4], [0.1], 0.5, 1.0, 0, 0, {}, None)
    assert run.scaled(p, "classify") == pytest.approx([0.1, 0.2])
    assert run.half_per_s([p, p], "classify") == pytest.approx(2 / 0.3)
    assert run.half_per_s([p], "classify", scale=False) == pytest.approx(2 / 0.6)


def test_probe_samples_every_kernel():
    speed = hostspeed.Probe()
    speed.sample(reps=2)
    assert all(len(ts) == 2 for ts in speed.samples.values())
    assert speed.speed() > 0
