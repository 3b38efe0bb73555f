"""Fail when a benchmark snapshot regresses past a factor of its baseline.

Usage::

    python benchmarks/check_regression.py BENCH_table4.json BENCH_fig10a.json \
        [--factor 3.0] [--baseline-ref HEAD]

Each named file is a freshly written ``BENCH_<name>.json`` at the repo
root (see ``repro.bench.harness.write_bench_json``); the baseline is the
committed version of the same file (``git show <ref>:<file>``).  The
comparison is on the ``headline_seconds`` field — the benchmark's single
wall-clock figure of merit — so CI tolerates runner noise (default 3×)
while still catching order-of-magnitude regressions.

Snapshots carrying throughput blocks are gated too: ``sharded``
(per-shard worker processes) exposes qps figures, and a *drop* below
``1/--qps-factor`` of the baseline fails the gate — qps regresses
downward, the opposite direction of seconds.  A baseline written before
a block existed skips that block with a message.

The figures under a top-level ``kernels`` block (descent hit rates)
are gated the same higher-is-better way: a rate dropping below
``baseline/--qps-factor`` fails.  Baselines predating the block
skip it with the same commit-a-fresh-snapshot message.

Exit status: 0 when every benchmark is within the factor (or has no
baseline yet), 1 on a regression, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_baseline(name: str, ref: str) -> dict | None:
    """The committed version of ``name``, or ``None`` when not committed."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def headline_of(snapshot: object) -> float | None:
    """``headline_seconds`` as a positive float, or ``None``.

    Baselines written by older harness versions (or by hand) may lack
    the key, hold a non-numeric value, or not even be a JSON object —
    none of which should crash the gate.
    """
    if not isinstance(snapshot, dict):
        return None
    value = snapshot.get("headline_seconds")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if value > 0 else None


def _positive(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if value > 0 else None


def qps_entries(snapshot: object) -> dict[str, float]:
    """Every gateable throughput figure of a snapshot, flattened.

    ``sharded.single_process_qps`` and ``sharded.w<N>.qps`` come from the
    multi-process block; ``ingest.docs_per_sec`` from the bulk-ingest
    bench.  Unusable values (missing, non-numeric, <= 0) are simply
    absent, mirroring :func:`headline_of`'s tolerance — a baseline
    written before a block existed skips that gate with a message.
    """
    out: dict[str, float] = {}
    if not isinstance(snapshot, dict):
        return out
    ingest = snapshot.get("ingest")
    if isinstance(ingest, dict):
        value = _positive(ingest.get("docs_per_sec"))
        if value is not None:
            out["ingest.docs_per_sec"] = value
    sharded = snapshot.get("sharded")
    if isinstance(sharded, dict):
        value = _positive(sharded.get("single_process_qps"))
        if value is not None:
            out["sharded.single_process_qps"] = value
        entries = sharded.get("workers")
        if isinstance(entries, list):
            for entry in entries:
                if not isinstance(entry, dict):
                    continue
                workers = entry.get("workers")
                value = _positive(entry.get("qps"))
                if isinstance(workers, int) and not isinstance(workers, bool) \
                        and value is not None:
                    out[f"sharded.w{workers}.qps"] = value
    return out


def kernel_entries(snapshot: object) -> dict[str, float]:
    """Gateable ``kernels`` block figures, flattened as ``kernels.<name>``.

    Only the descent hit *rates* are gated (higher is better, like qps);
    booleans (older snapshots carry a ``packed`` flag) and any
    non-numeric or non-positive values are skipped with the same
    tolerance as :func:`qps_entries` — a baseline written before the
    block existed simply has no entries.
    """
    out: dict[str, float] = {}
    if not isinstance(snapshot, dict):
        return out
    kernels = snapshot.get("kernels")
    if not isinstance(kernels, dict):
        return out
    for key, raw in kernels.items():
        if not isinstance(key, str) or not key.endswith("_hit_rate"):
            continue
        value = _positive(raw)
        if value is not None:
            out[f"kernels.{key}"] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="BENCH_*.json files at the repo root")
    parser.add_argument("--factor", type=float, default=3.0)
    parser.add_argument(
        "--qps-factor",
        type=float,
        default=3.0,
        help="fail when a qps figure drops below baseline/QPS_FACTOR",
    )
    parser.add_argument("--baseline-ref", default="HEAD")
    args = parser.parse_args(argv)

    failures = 0
    for name in args.files:
        current_path = REPO_ROOT / name
        if not current_path.exists():
            print(f"error: {name} missing — did the benchmark run?", file=sys.stderr)
            return 2
        try:
            current = json.loads(current_path.read_text())
        except json.JSONDecodeError as exc:
            print(f"{name}: current snapshot is not valid JSON ({exc}); skipping")
            continue
        baseline = load_baseline(name, args.baseline_ref)
        if baseline is None:
            print(f"{name}: no committed baseline at {args.baseline_ref}; skipping")
            continue
        now = headline_of(current)
        then = headline_of(baseline)
        if then is None:
            print(
                f"{name}: baseline has no usable headline_seconds; skipping "
                "(commit a fresh snapshot to enable the gate)"
            )
        elif now is None:
            print(f"{name}: current snapshot has no usable headline_seconds; skipping")
        else:
            ratio = now / then
            verdict = "OK" if ratio <= args.factor else "REGRESSION"
            print(
                f"{name}: {then:.4f}s -> {now:.4f}s ({ratio:.2f}x, limit "
                f"{args.factor:.1f}x) {verdict}"
            )
            if ratio > args.factor:
                failures += 1
        # throughput gates run regardless of the headline outcome: a
        # snapshot can lose its headline and still carry qps blocks
        now_qps = qps_entries(current)
        then_qps = qps_entries(baseline)
        now_qps.update(kernel_entries(current))
        then_qps.update(kernel_entries(baseline))
        floor = 1.0 / args.qps_factor
        for key in sorted(now_qps):
            if key not in then_qps:
                print(
                    f"{name} {key}: baseline has no such figure; skipping "
                    "(commit a fresh snapshot to enable the gate)"
                )
                continue
            ratio = now_qps[key] / then_qps[key]
            verdict = "OK" if ratio >= floor else "REGRESSION"
            if key.startswith("kernels."):
                figures = f"{then_qps[key]:.3f} -> {now_qps[key]:.3f}"
            else:
                figures = f"{then_qps[key]:.1f} -> {now_qps[key]:.1f} qps"
            print(
                f"{name} {key}: {figures} "
                f"({ratio:.2f}x, floor {floor:.2f}x) {verdict}"
            )
            if ratio < floor:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
