"""threshq benchmark: certified q(G) intervals, timed end to end and per layer.

    python3 qbench/run.py --workload census|long|q2 --seed N --seconds S --trace 0|1

Run from the root of a source checkout; threshq is imported from ./src.
One process and one caller in a closed loop: each call into threshq starts
only after the previous one returned.  A pass classifies every input of the
workload with classify_text, then re-verifies every answer with
verify_qbound; passes repeat while another one fits in --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics; the spans of the first
traced pass are written to qbench/out/ when the run ends.

Every time is scaled to a reference host speed measured all through the
same region (hostspeed.py), so a shared host's slow stretches do not move
the figures; the unscaled times are in the report.  The last line of stdout
is the result object; the line before it is a report with the environment,
the generator properties, the interval histogram, the host speeds and the
answers counted as failures.  See qbench/README.md.
"""

from __future__ import annotations

import os
import sys

# A fixed string-hash seed, so that dict and set layouts repeat from run to
# run instead of adding a per-process difference that no number of passes
# averages out.  The interpreter reads it only at start-up, hence the exec,
# which replaces this process rather than starting another.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# One BLAS/OpenMP thread, set before numpy is first imported: the
# eigensolves are at most 40x40 and extra threads only contend for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import probe
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_PROBE_REPS = 5    # kernel runs before, within and after each set-up
WARMUP = 1          # inputs classified and verified once before timing
TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile
TABLE_ORDERS = (7, 8)


@dataclass
class Pass:
    """One pass over a workload's inputs, with its answers judged."""

    wall_s: float
    classify_s: list[float]  # unscaled call times
    verify_s: list[float]
    classify_speed: float    # host speed over each half (hostspeed.Probe)
    verify_speed: float
    memo_hits: int           # memo statistics over the classification half
    memo_misses: int
    verdict: dict            # judge()'s lists
    answers: list | None     # kept for the first pass only


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def timed_calls(fn, items, memos, cold_each: bool):
    """Call fn on each item in turn and time each call.

    Memos are cleared before the first call and, with cold_each, after every
    call, and are required empty where a timed region starts.  The host
    speed is probed before the first call, between calls at least every
    hostspeed.PROBE_EVERY_S, and after the last.  Returns the times, the
    results (an exception stands in for a call that raised), the memo hits
    and misses counted meanwhile, and the host speed over the region.
    """
    clock = time.perf_counter
    times, outs = [], []
    hits = misses = 0
    speed = hostspeed.Probe()
    probe.clear_memos(memos)
    for i, item in enumerate(items):
        speed.maybe_sample()
        if cold_each or i == 0:
            probe.require_empty(memos)
        start = clock()
        try:
            out = fn(item)
        except Exception as exc:  # a call that raises is a failed operation
            out = exc
        times.append(clock() - start)
        outs.append(out)
        if cold_each:
            h, m = probe.clear_memos(memos)
            hits, misses = hits + h, misses + m
    speed.sample()
    h, m = probe.clear_memos(memos)
    return times, outs, hits + h, misses + m, speed.speed()


def run_pass(tq, memos, workload: str, seqs: list[str], keep_answers: bool) -> Pass:
    """Classify then verify every input.  The census shares one memo across
    the pass, as a census user does; the other workloads start every call
    cold, as separate `threshq bounds` calls do.  Only the first pass keeps
    its answers, so memory does not grow with the number of passes.

    Cyclic garbage collection runs between the halves of a pass, not inside
    them.  When a collection fires depends on the allocation count, so it
    lands on the same inputs in every pass, where no median over passes
    can filter it out; on q2 it moved classify_tail_ms from 6 ms to 8.5 ms
    between two orders of the same inputs.
    """
    cold_each = workload != "census"
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        classify_s, answers, hits, misses, classify_speed = timed_calls(
            tq.classify_text, seqs, memos, cold_each)
        done = [(text, qb) for text, qb in zip(seqs, answers) if not isinstance(qb, Exception)]
        gc.collect()
        verify_s, checked, _, _, verify_speed = timed_calls(
            lambda pair: tq.verify_qbound(tq.graph_from_text(pair[0]), pair[1]),
            done, memos, cold_each)
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    checked_iter = iter(checked)
    verdicts = [qb if isinstance(qb, Exception) else next(checked_iter) for qb in answers]
    return Pass(wall_s, classify_s, verify_s, classify_speed, verify_speed, hits, misses,
                judge(seqs, answers, verdicts), answers if keep_answers else None)


def import_seconds() -> float:
    """Time `import threshq` in a fresh interpreter, as each user process pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import threshq; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def set_up(tq, memos, workload: str, seed: int, speed: hostspeed.Probe):
    """Import in a fresh interpreter, input generation, warm-up and the
    reference-table check; memos are cleared around each part so that each
    does cold work, and cyclic collection waits until the end, as in a pass.
    The host speed is probed into `speed` before, after the import and at
    the end.  Returns the unscaled time, the inputs and the reference
    tables."""
    speed.sample(SETUP_PROBE_REPS)
    import_s = import_seconds()
    speed.sample(SETUP_PROBE_REPS)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        probe.clear_memos(memos)
        seqs = workloads.make(workload, seed)
        for text in seqs[:WARMUP]:
            tq.verify_qbound(tq.graph_from_text(text), tq.classify_text(text))
        probe.clear_memos(memos)
        tables = {n: tq.reproduce_table(n) for n in TABLE_ORDERS}
        probe.clear_memos(memos)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    speed.sample(SETUP_PROBE_REPS)
    return import_s + elapsed, seqs, tables


def judge(seqs, answers, verdicts) -> dict:
    """Sort the answers of one pass.

    raised: classify or verify raised.  rejected: verify_qbound returned
    False.  Both are hard failures.  gate_misses: lower = 2 < upper, which
    cannot happen because the q = 2 gate is exact; the interval is sound
    and its certificates verify, but it counts in fail_frac.  unsound: the
    interval breaks 2 <= lower <= upper <= n or contradicts the benchmark's
    own q = 2 criterion; that makes the run incorrect.
    """
    out = {"raised": [], "rejected": [], "gate_misses": [], "unsound": []}
    for text, qb, ok in zip(seqs, answers, verdicts):
        if isinstance(qb, Exception) or isinstance(ok, Exception):
            out["raised"].append((text, repr(ok if isinstance(ok, Exception) else qb)))
            continue
        interval = [qb.lower, qb.upper]
        if ok is not True:
            out["rejected"].append((text, interval))
        if qb.lower == 2 < qb.upper:
            out["gate_misses"].append((text, interval))
        is_q2 = workloads.q2_counting(text)
        if not 2 <= qb.lower <= qb.upper <= len(text) or (
                qb.lower > 2 if is_q2 else qb.upper < 3):
            out["unsound"].append((text, interval))
    return out


def scaled(p: Pass, half: str) -> list[float]:
    """One half's call times at the reference host speed."""
    speed = getattr(p, f"{half}_speed")
    return [t * speed for t in getattr(p, f"{half}_s")]


def per_input(passes, half: str) -> list[float]:
    """Each input's median scaled call time over the passes."""
    return [statistics.median(ts) for ts in zip(*(scaled(p, half) for p in passes))]


def half_per_s(passes, half: str, scale: bool = True) -> float:
    """Calls per second of one half: its call count over the median, over
    the passes, of the half's summed call times."""
    sums = [sum(scaled(p, half) if scale else getattr(p, f"{half}_s")) for p in passes]
    return len(getattr(passes[0], f"{half}_s")) / statistics.median(sums)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it.  Below 10 * TAIL_BEYOND samples that
    percentile would fall under p90, so the maximum stands in for it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) >= 10 * TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def interval_report(answers) -> dict:
    """Interval histogram and interval quality over the answers that exist."""
    good = [qb for qb in answers if not isinstance(qb, Exception)]
    hist = Counter(f"[{qb.lower},{qb.upper}]" for qb in good)

    def mean(f):
        return statistics.fmean(map(f, good)) if good else 0.0

    return {
        "histogram": dict(sorted(hist.items())),
        "exact_frac": mean(lambda qb: qb.lower == qb.upper),
        "mean_width": mean(lambda qb: qb.upper - qb.lower),
        "mean_lower": mean(lambda qb: qb.lower),
        "mean_upper": mean(lambda qb: qb.upper),
    }


def environment(tq, np, workload: str, seed: int, seqs, import_s: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy builds differ in what show_config reports
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "threshq": tq.__version__,
        "import_in_process_s": import_s,
        "workload": workload,
        "seed": seed,
        "inputs": workloads.describe(seqs),
    }


def measure(tq, memos, modules, args, seqs):
    """Passes until another would not fit in --seconds; with --trace 1 each
    untraced pass is followed by a traced one."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(tq, memos, args.workload, seqs, keep_answers=not plain))
        if args.trace:
            tracer = probe.LayerTracer(modules)
            tracer.install()
            try:
                traced.append((run_pass(tq, memos, args.workload, seqs, False), tracer))
            finally:
                tracer.uninstall()
        spent = time.perf_counter() - start
        if spent + spent / len(plain) > args.seconds:
            return plain, traced


def end_to_end(passes):
    classify = per_input(passes, "classify")
    tail_s, tail_pct = tail(classify)
    metrics = {
        "classify_per_s": half_per_s(passes, "classify"),
        "classify_p50_ms": 1e3 * statistics.median(classify),
        "classify_tail_ms": 1e3 * tail_s,
        "verify_per_s": half_per_s(passes, "verify"),
    }
    tail_note = {"percentile": tail_pct, "samples": len(classify),
                 "sample": "per-input median scaled call time over the run's passes"}
    unscaled = {"classify_per_s": half_per_s(passes, "classify", scale=False),
                "verify_per_s": half_per_s(passes, "verify", scale=False)}
    return metrics, tail_note, unscaled


def per_layer(plain, traced):
    """Per-layer numbers of the traced passes.  Call counts come from one
    pass and must repeat exactly in every other; times are medians."""
    summaries = []
    for p, tracer in traced:
        s = probe.summarize(tracer.spans)
        s["bounds.classify.nodes"] = p.memo_misses
        s["bounds.classify.memo_hits"] = p.memo_hits
        summaries.append(s)
    first = summaries[0]
    repeat = all(s[k] == first[k] for s in summaries for k in first if not k.endswith("_s"))
    out = {k: (statistics.median(s[k] for s in summaries) if k.endswith("_s") else v)
           for k, v in first.items()}
    out["trace.overhead_frac"] = (statistics.median(p.wall_s for p, _ in traced)
                                  / statistics.median(p.wall_s for p in plain) - 1.0)
    return out, repeat


def write_spans(workload: str, seed: int, tracer) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for layer, parent, start, end, detail in tracer.spans:
            fh.write(json.dumps([layer, parent, start - t0, end - t0, detail]) + "\n")
    return path


def declared_metrics(kind: str) -> list[dict]:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "threshq" / "__init__.py").is_file():
        print(f"error: no threshq sources at {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import threshq as tq
    modules = probe.package_modules(tq)
    import_s = time.perf_counter() - t0
    if Path(tq.__file__).resolve().parent != SRC / "threshq":
        print(f"error: imported threshq from {tq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    memos = probe.find_memos(modules)

    # setup_s is the median set-up scaled by the host speed over all of them:
    # a few samples around each single set-up would add more noise than
    # they remove.
    setup_speed = hostspeed.Probe()
    setups = [set_up(tq, memos, args.workload, args.seed, setup_speed)
              for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _, _ in setups) * setup_speed.speed()
    seqs = setups[0][1]
    tables_ok = all(rep.all_match for *_, tables in setups for rep in tables.values())

    plain, traced = measure(tq, memos, modules, args, seqs)
    passes = plain + [p for p, _ in traced]
    first = plain[0].verdict
    attempted = len(seqs) * len(passes)
    failed = sum(len(p.verdict["raised"]) + len(p.verdict["rejected"]) for p in passes)
    correct = tables_ok and not any(p.verdict["rejected"] or p.verdict["unsound"] for p in passes)
    hard = len(first["raised"]) + len(first["rejected"])

    report = {
        "environment": environment(tq, np, args.workload, args.seed, seqs, import_s),
        "memos": [m.__module__ + "." + m.__qualname__ for m in memos],
        "setup_runs_unscaled_s": [s for s, _, _ in setups],
        "setup_speed": setup_speed.speed(),
        "tables": {n: rep.summary() for n, rep in setups[0][2].items()},
        "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_classify_verify_s": [[sum(p.classify_s), sum(p.verify_s)] for p in plain],
        "pass_speed": [[p.classify_speed, p.verify_speed] for p in plain],
        "fail_frac": (hard + len(first["gate_misses"])) / len(seqs),
        **{k: {"count": len(v), "rows": v[:20]} for k, v in first.items()},
        **interval_report(plain[0].answers),
    }
    if args.trace:
        values, repeat = per_layer(plain, traced)
        correct = correct and repeat
        report["traced_passes"] = len(traced)
        report["calls_repeat"] = repeat
        report["missing_layers"] = traced[0][1].missing
        spans = write_spans(args.workload, args.seed, traced[0][1])
        report["spans"] = str(spans.relative_to(HERE.parent))
        declared = declared_metrics("per_layer")
    else:
        values, report["classify_tail"], report["unscaled"] = end_to_end(plain)
        values["setup_s"] = setup_s
        values["success_frac"] = 1.0 - report["fail_frac"]
        values["mean_lower"] = report["mean_lower"]
        values["mean_upper"] = report["mean_upper"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = declared_metrics("end_to_end")

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {metrics[m['name']]['value']:>14.6g} {m['unit']}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
