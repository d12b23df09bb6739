"""skyrelay benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload meta_churn --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Standard output carries a table of every end-to-end
metric by name and unit, the output checks and run invariants, and, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the gated end-to-end ones of BENCHMARK.json.
With --trace 1 the run is measured twice, untraced then traced, each on a
freshly booted stack; the metrics are the per-layer ones, and the table adds
the per-op span breakdown and the tracing overhead (traced minus untraced).
Spans and tables are also written under .perfbench_out/.  The exit code is
non-zero when any output check or invariant fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# gated by the benchmark contract: present on every workload, never zero
GATED = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
# printed for every workload; n/a where a workload has no op of that kind
REPORTED = {
    "failed_op_ratio": "ratio",
    "agent_kib_per_cloud_op": "KiB",
    "transfer_wire_ratio": "ratio",
    "download_mib_s": "MiB/s",
    "compress_mib_s": "MiB/s",
    "encrypt_mib_s": "MiB/s",
    "convert_mib_s": "MiB/s",
    "transfer_private_mib_s": "MiB/s",
    "transfer_shared_mib_s": "MiB/s",
}


def _load_program():
    if not (SRC / "skyrelay" / "__init__.py").is_file():
        sys.exit(f"no skyrelay sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import skyrelay
    if Path(skyrelay.__file__).resolve().parent != SRC / "skyrelay":
        sys.exit(f"imported skyrelay from {skyrelay.__file__}, not from {SRC}")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def _fmt(v) -> str:
    return "n/a" if v is None or (isinstance(v, float) and math.isnan(v)) else f"{v:.4f}"


def e2e_table(r: dict) -> list[str]:
    lines = [f"workload {r['workload']} seed {r['seed']}: {r['attempted']} ops, "
             f"timed phase {r['phase_s']:.2f} s",
             "  ops (count, p50 ms): " + ", ".join(
                 f"{k} {n} {r['p50_ms_by_kind'].get(k, math.nan):.1f}"
                 for k, n in r["ops_by_kind"].items())]
    notes = {
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in r["setup_runs_s"]),
        "op_tail_ms": f"p{r['op_tail_pct']:.1f} of {r['op_samples']} samples",
        "failed_op_ratio": f"{r['failed']} of {r['attempted']}",
    }
    for name, unit in {**GATED, **REPORTED}.items():
        lines.append(f"  {name:<24}{_fmt(r[name]):>14} {unit:<6} {notes.get(name, '')}")
    lines.append(f"  worker.job_dirs_left={r['worker.job_dirs_left']} "
                 f"worker.exposures_live={r['worker.exposures_live']}")
    for err in r["errors"]:
        lines.append(f"  failed op: {err}")
    for name, ok in r["invariants"].items():
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _load_program()
    from perfbench.harness import WORKLOADS, measure
    from perfbench.tracing import Tracer, write_spans
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if args.trace:
        plain = measure(args.workload, args.seed, args.seconds)
        tracer = Tracer()
        r = measure(args.workload, args.seed, args.seconds, tracer=tracer)
        runs = (plain, r)
    else:
        r = measure(args.workload, args.seed, args.seconds)
        runs = (r,)

    lines = []
    for run in runs:
        lines += e2e_table(run)
    if args.trace:
        lines.append("tracing overhead (traced - untraced):")
        for name, unit in {**GATED, **REPORTED}.items():
            a, b = plain[name], r[name]
            if a is not None and b is not None:
                lines.append(f"  {name:<24}{b - a:>+14.4f} {unit}")
        lines.append(f"per-layer spans, per op, traced run "
                     f"(peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB,"
                     f" a diagnostic only):")
        lines.append(r["layer_table"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in r["layers"].items()}
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        stem = out / f"{args.workload}-seed{args.seed}"
        write_spans(tracer, f"{stem}-spans.jsonl")
        Path(f"{stem}-trace.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        metrics = {k: {"value": r[k], "unit": u} for k, u in GATED.items()}

    correct = all(all(run["invariants"].values()) and run["failed"] == 0 for run in runs)
    print("\n".join(lines))
    print(json.dumps({"correct": correct,
                      "attempted": sum(run["attempted"] for run in runs),
                      "failed": sum(run["failed"] for run in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
