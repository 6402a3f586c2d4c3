#!/usr/bin/env python3
"""Perf-regression gate: diff fresh E14/E17/E21 runs against the
committed BENCH_*.json references.

usage: bench_diff.py FRESH_DIR [--repo DIR] [--timing-tolerance X]

FRESH_DIR must contain faults.json, symscale.json and ddscale.json as
written by scripts/reproduce.sh (or the CI job). They are compared
against BENCH_faults.json, BENCH_symbolic.json and BENCH_dd.json in the
repo root:

  * run metadata (`meta`) must be compatible — same schema, experiment
    and seed. A mismatch means the two runs measured different things;
    the diff REFUSES (exit 2) rather than producing an apples-to-oranges
    verdict. Thread count, crate version and host cores may differ (they
    are reported, and absorbed by the timing tolerance).
  * deterministic columns are compared EXACTLY: every E14 fault-sweep
    field (it runs on a virtual clock), and E17/E21 digests, verdicts,
    methods and size columns. Any difference is a functional regression
    (exit 1).
  * timing columns (E17 sym_ms/enum_ms, E21 dd_ms) must agree within
    --timing-tolerance (default 5.0): fresh <= committed * X and
    fresh >= committed / X. The default is deliberately loose — CI
    machines differ from the machine that produced the reference — but
    still catches order-of-magnitude regressions.

exit codes: 0 = no regression, 1 = regression, 2 = incompatible inputs.
"""

import argparse
import json
import os
import sys

FAILURES = []
NOTES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL {msg}")


def note(msg):
    NOTES.append(msg)
    print(f"note {msg}")


def refuse(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    print("bench_diff: refusing to compare (incompatible inputs)", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        refuse(f"{path} does not exist")
    except json.JSONDecodeError as e:
        refuse(f"{path} is not valid JSON: {e}")


def meta_of(doc, path):
    if not isinstance(doc, dict) or "meta" not in doc:
        refuse(
            f"{path} has no run metadata header; regenerate it with "
            "scripts/reproduce.sh (pre-meta artifacts cannot be gated)"
        )
    return doc["meta"]


def check_meta(name, fresh, committed):
    """Exact keys must match or the comparison is meaningless; loose keys
    are informational (absorbed by the timing tolerance)."""
    for key in ("schema", "experiment", "seed"):
        f, c = fresh.get(key), committed.get(key)
        if f != c:
            refuse(f"{name}: meta.{key} differs (fresh {f!r} vs committed {c!r})")
    for key in ("threads", "version", "host_cores"):
        f, c = fresh.get(key), committed.get(key)
        if f != c:
            note(f"{name}: meta.{key} differs (fresh {f!r} vs committed {c!r})")


def check_rows(name, fresh_rows, committed_rows, key_fn, exact, timings, tol):
    fresh_by = {key_fn(r): r for r in fresh_rows}
    committed_by = {key_fn(r): r for r in committed_rows}
    if sorted(fresh_by) != sorted(committed_by):
        fail(
            f"{name}: row sets differ "
            f"(fresh {sorted(fresh_by)} vs committed {sorted(committed_by)})"
        )
        return
    for key in sorted(committed_by):
        f, c = fresh_by[key], committed_by[key]
        for col in exact:
            if f.get(col) != c.get(col):
                fail(
                    f"{name} {key}: {col} differs "
                    f"(fresh {f.get(col)!r} vs committed {c.get(col)!r})"
                )
        for col in timings:
            fv, cv = f.get(col), c.get(col)
            if fv is None and cv is None:
                continue  # e.g. enum_ms when enumeration is infeasible
            if not isinstance(fv, (int, float)) or not isinstance(cv, (int, float)):
                fail(f"{name} {key}: {col} missing or non-numeric")
                continue
            # Sub-millisecond cells are noise-dominated; skip them.
            if cv < 1.0 and fv < 1.0:
                continue
            lo, hi = cv / tol, cv * tol
            if not (lo <= fv <= hi):
                fail(
                    f"{name} {key}: {col} out of envelope "
                    f"(fresh {fv:.2f} vs committed {cv:.2f}, "
                    f"allowed [{lo:.2f}, {hi:.2f}])"
                )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh_dir", help="directory with faults/symscale/ddscale.json")
    ap.add_argument("--repo", default=None, help="repo root (default: script's parent)")
    ap.add_argument(
        "--timing-tolerance",
        type=float,
        default=5.0,
        metavar="X",
        help="allowed multiplicative drift for timing columns (default 5.0)",
    )
    args = ap.parse_args()
    repo = args.repo or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tol = args.timing_tolerance
    if tol < 1.0:
        refuse(f"--timing-tolerance must be >= 1.0, got {tol}")

    # E14: fault sweep. Virtual clock + fixed seed => every field exact.
    fresh = load(os.path.join(args.fresh_dir, "faults.json"))
    committed = load(os.path.join(repo, "BENCH_faults.json"))
    check_meta("faults", meta_of(fresh, "faults.json"), meta_of(committed, "BENCH_faults.json"))
    fault_cols = sorted({k for r in committed["rows"] for k in r})
    check_rows(
        "faults",
        fresh["rows"],
        committed["rows"],
        lambda r: r["fault_rate"],
        exact=fault_cols,
        timings=[],
        tol=tol,
    )

    # E17: symbolic vs enumerative. Verdict columns exact; engine timings
    # within the envelope.
    fresh = load(os.path.join(args.fresh_dir, "symscale.json"))
    committed = load(os.path.join(repo, "BENCH_symbolic.json"))
    check_meta(
        "symscale", meta_of(fresh, "symscale.json"), meta_of(committed, "BENCH_symbolic.json")
    )
    check_rows(
        "symscale",
        fresh["rows"],
        committed["rows"],
        lambda r: r["workload"],
        exact=[
            "digest",
            "verdict",
            "method",
            "packets_checked",
            "dd_nodes_left",
            "dd_nodes_right",
            "product_log2",
            "enum_feasible",
        ],
        timings=["sym_ms", "enum_ms"],
        tol=tol,
    )

    # E21: decision diagrams at width. Structural columns (joint bits, node
    # counts, verdicts) are deterministic => exact; the wall clock sits in
    # the timing envelope. On top of the diff, the fresh run must itself
    # uphold the headline claims: wide16 is a ≥2^64 product, and the lint
    # sweep reports zero unknowns on every workload.
    fresh = load(os.path.join(args.fresh_dir, "ddscale.json"))
    committed = load(os.path.join(repo, "BENCH_dd.json"))
    check_meta("ddscale", meta_of(fresh, "ddscale.json"), meta_of(committed, "BENCH_dd.json"))
    check_rows(
        "ddscale",
        fresh["rows"],
        committed["rows"],
        lambda r: r["workload"],
        exact=[
            "digest",
            "verdict",
            "dd_nodes",
            "joint_bits",
            "product_log2",
        ],
        timings=["dd_ms"],
        tol=tol,
    )
    check_rows(
        "ddscale lint",
        fresh["lint"],
        committed["lint"],
        lambda r: r["workload"],
        exact=["digest", "dd_unknown", "dd_dead"],
        timings=[],
        tol=tol,
    )
    wide16 = next((r for r in fresh["rows"] if r["workload"] == "wide16"), None)
    if wide16 is None:
        fail("ddscale: wide16 row missing from the fresh run")
    elif wide16["product_log2"] < 64.0:
        fail(f"ddscale wide16: product 2^{wide16['product_log2']:.1f} < 2^64")
    for r in fresh["lint"]:
        if r.get("dd_unknown", 0) != 0:
            fail(f"ddscale lint {r['workload']}: {r['dd_unknown']} DD unknown finding(s)")

    if FAILURES:
        print(f"bench_diff: {len(FAILURES)} regression(s)")
        sys.exit(1)
    print(f"bench_diff: ok ({len(NOTES)} note(s), timing tolerance {tol}x)")


if __name__ == "__main__":
    main()
