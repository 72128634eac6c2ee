"""Command-line surface.

Subcommands: bounds, table, ssp, certify, enumerate.  Exit codes are a
stable contract: 0 success, 1 verification failure or catalog mismatch,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bounds import SelfCheckError, classify_q, verify_qbound
from .gram import InfeasibleRepair
from .orthosearch import ssp_check
from .sequences import SequenceError, build_graph, enumerate_connected, parse_creation_sequence
from .spectra import NoConvergence, check_matrix
from .spectra import read_matrix, read_rows
from .tables import reproduce_table


def _matrix_text(A: np.ndarray) -> str:
    lines = [str(A.shape[0])]
    lines += [" ".join(f"{x:.12g}" for x in row) for row in A]
    return "\n".join(lines)


def _emit(report: dict, fmt: str, csv_text: str | None = None) -> None:
    if fmt == "json":
        clean = {k: v for k, v in report.items() if k != "text_lines"}
        print(json.dumps(clean, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(csv_text if csv_text is not None else _default_csv(report), end="")
    else:
        for line in report.get("text_lines", []):
            print(line)


def _default_csv(report: dict) -> str:
    keys = [k for k, v in report.items()
            if k != "text_lines" and isinstance(v, (str, int, float, bool))]
    head = ",".join(keys)
    row = ",".join(str(report[k]) for k in keys)
    return f"{head}\n{row}\n"


def cmd_bounds(args) -> int:
    seq = parse_creation_sequence(args.sequence)
    if not seq.connected:
        print(f"sequence {args.sequence} is not connected (last bit must be 1)", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    G = build_graph(seq)
    qb = classify_q(G)
    verified = verify_qbound(G, qb)
    certs = []
    for side, cs in (("lower", qb.lower_certs), ("upper", qb.upper_certs)):
        for c in cs:
            entry = {"side": side, "kind": c.kind, "value": c.value, "provenance": c.provenance}
            if "matrix" in c.payload:
                entry["matrix"] = _matrix_text(c.payload["matrix"])
            if "chain" in c.payload:
                entry["chain"] = list(c.payload["chain"])
            certs.append(entry)
    report = {
        "command": f"bounds {args.sequence}",
        "version": __version__,
        "sequence": args.sequence,
        "lower": qb.lower,
        "upper": qb.upper,
        "exact": qb.exact,
        "verified": verified,
        "certificates": certs,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    report["text_lines"] = [
        str(qb),
        "certificates: " + ", ".join(f"{c['side']}:{c['kind']}({c['value']})" for c in certs),
        f"verified: {verified}",
    ]
    kinds = "+".join(c["kind"] for c in certs)
    csv_text = ("sequence,lower,upper,exact,cert-kinds\n"
                f"{args.sequence},{qb.lower},{qb.upper},{qb.exact},{kinds}\n")
    _emit(report, args.format, csv_text=csv_text)
    return 0 if verified else 1


def cmd_table(args) -> int:
    rep = reproduce_table(args.n)
    d = rep.to_dict()
    d["command"] = f"table {args.n}"
    d["version"] = __version__
    d["summary"] = rep.summary()
    lines = [rep.summary()]
    for r in rep.mismatches:
        lines.append(f"MISMATCH row {r.index} {r.sequence}: expected "
                     f"[{r.expected_low},{r.expected_high}] got [{r.got_low},{r.got_high}]")
    for r in rep.rows:
        if r.note and r.match:
            lines.append(f"note row {r.index} {r.sequence}: {r.note}")
    for r in rep.extras:
        lines.append(f"extra {r.sequence}: q in [{r.got_low},{r.got_high}] ({r.note})")
    d["text_lines"] = lines
    _emit(d, args.format, csv_text=rep.to_csv())
    return 0 if rep.all_match else 1


def cmd_ssp(args) -> int:
    rep = ssp_check(read_matrix(args.file))  # ssp_check validates the matrix
    report = {
        "command": f"ssp {args.file}",
        "version": __version__,
        "ssp": rep.is_ssp,
        "nullity": rep.nullity,
        "smallest_nonzero_singular_value": rep.smallest_sv,
        "text_lines": [f"SSP: {rep.is_ssp} (nullity {rep.nullity}, "
                       f"smallest retained singular value {rep.smallest_sv:.3e})"],
    }
    _emit(report, args.format)
    return 0


def cmd_certify(args) -> int:
    G = build_graph(parse_creation_sequence(args.sequence))
    header, A = read_rows(args.file)  # parsed once, read by its header
    if len(header) == 2:  # a 'rows cols' factor M names M M^T
        A = A @ A.T
    _, q, pat = check_matrix(A, G, args.tol)
    ok = bool(pat) and q == args.q
    report = {
        "command": f"certify {args.sequence} {args.q} {args.file}",
        "version": __version__,
        "in_pattern": bool(pat),
        "q": q,
        "claimed_q": args.q,
        "pass": ok,
        "text_lines": [("PASS" if ok else "FAIL")
                       + f": in_pattern={bool(pat)}, q={q}, claimed={args.q}"],
    }
    if pat.violations:
        report["violations"] = [list(v) for v in pat.violations]
    _emit(report, args.format)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    seqs = [s.text for s in enumerate_connected(args.n, order=args.order)]
    report = {
        "command": f"enumerate {args.n}",
        "version": __version__,
        "count": len(seqs),
        "sequences": seqs,
        "text_lines": seqs + [f"{len(seqs)} sequences"],
    }
    _emit(report, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="threshq",
                                description="bounds and exact values for the minimum number "
                                            "of distinct eigenvalues of threshold graphs")
    p.add_argument("--version", action="version", version=f"threshq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = sub.add_parser("bounds", help="classify one creation sequence")
    sp.add_argument("sequence")
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("table", help="reproduce a reference catalog")
    sp.add_argument("n", type=int, choices=(7, 8))
    common(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("ssp", help="strong spectral property of a matrix file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_ssp)

    sp = sub.add_parser("certify", help="check a matrix file against a sequence and q")
    sp.add_argument("sequence")
    sp.add_argument("q", type=int)
    sp.add_argument("file")
    sp.add_argument("--tol", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("enumerate", help="list connected creation sequences")
    sp.add_argument("n", type=int)
    sp.add_argument("--order", choices=("lex", "table"), default="lex")
    common(sp)
    sp.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SequenceError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SelfCheckError, InfeasibleRepair) as exc:  # a certificate failed where it is built
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
