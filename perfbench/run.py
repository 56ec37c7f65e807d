"""Run one benchmark workload at one seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exactsim-gq --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics (from a second, traced pass over the same lines).
Each metric is printed as a ``# name = value unit`` line; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full record (run envelope, every metric, sample counts,
the first failed checks) goes to ``.bench_out/<workload>-seed<n>-trace<t>.json``
and a traced run's spans to ``.bench_out/spans-<workload>-seed<n>.jsonl``.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line is still printed, with ``"correct": false``), 2 when the run
could not be made at all (no program source, bad arguments, a crash).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.  Mirrors ``end_to_end`` in BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _git_sha() -> Optional[str]:
    """HEAD of the repository this file sits in, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over every file under src/ (path and bytes), for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError):   # older numpy: no dict mode
        return "unknown"


def envelope(args: argparse.Namespace, num_nodes: int, num_edges: int) -> Dict[str, Any]:
    import numpy
    import scipy
    from repro.kernels import parallel

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "kernel_threads": parallel.get_num_threads(),
        "platform": platform.platform(),
        "graph_nodes": num_nodes, "graph_edges": num_edges,
    }


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import layers
    import streams
    import workloads

    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != E2E_UNITS or declared_layer != layers.LAYER_UNITS:
        print("error: BENCHMARK.json metrics differ from the ones this "
              "benchmark computes", file=sys.stderr)
        return 2
    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.RUNNERS)}", file=sys.stderr)
        return 2

    workloads.OUT_DIR.mkdir(exist_ok=True)
    tally = workloads.Tally()
    for problem in streams.self_test(workloads.get_spec("GQ").load(),
                                     seeds=(args.seed, args.seed + 1)):
        tally.run_check(False, f"stream self-test: {problem}")
    try:
        result = workloads.RUNNERS[args.workload](args.seed, args.seconds,
                                                  bool(args.trace), tally)
    except Exception:
        traceback.print_exc()
        return 2

    if args.trace:
        values = {name: float(result.layer.get(name, 0.0)) for name in declared_layer}
        units = declared_layer
    else:
        values = result.end_to_end()
        units = declared_e2e
    for name, value in values.items():
        if not math.isfinite(value):
            tally.run_check(False, f"metric {name} is not finite: {value}")
            values[name] = 0.0

    record = {"envelope": envelope(args, result.num_nodes, result.num_edges),
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_frac": tally.failed / max(tally.attempted, 1),
              "problems": tally.problems,
              "end_to_end": result.end_to_end(), "per_layer": result.layer,
              "samples": {"latencies": len(result.untraced.latencies_ms),
                          "updates": len(result.untraced.update_ms),
                          "setups": len(result.setups)},
              "details": result.details}
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print("# envelope " + json.dumps(record["envelope"]))
    print(f"# failed_frac = {record['failed_frac']:.6g} "
          f"({tally.failed} of {tally.attempted} lines)")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
