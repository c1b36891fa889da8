"""Benchmark entry point: seeded inputs, one fresh process per workload, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  For each workload the launcher generates the
seeded inputs (untimed), then starts a fresh worker process that runs the
workload for ``--seconds`` and checks its outputs.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` the
launcher runs the workload twice, untraced and traced, and reports the
per-layer metrics plus the tracing overhead.  Full records, including the
environment, input digests and sample counts, go to
``.bench_out/<workload>-seed<N>-trace<T>.json``; traced spans go next to
them as JSON lines.
"""

import os

# Pin BLAS before anything imports numpy, here and in the workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("prove-mix", "build-train", "query-tail")
RUN_LIMIT_S = 170  # every run must end within 180 s


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _worker(workload: str, seed: int, seconds: float, trace: bool, share: float, fixtures: Path, work: Path,
            deadline: float) -> dict:
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "share": share,
        "fixtures": str(fixtures), "work": str(work), "result": str(work / "result.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in (ROOT / "src", ROOT / "tests", BENCH)))
    subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), str(spec_path)],
        env=env, check=True, timeout=max(1.0, deadline - time.monotonic()), stdout=sys.stderr,
    )
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Generate inputs, run the worker(s), and return the full record."""
    import fixtures

    spec = _load_spec()
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        digests = fixtures.make_fixtures(workload, seed, work / "inputs")
        # A traced run splits its time and passes between an untraced and a traced worker.
        share = 0.5 if trace else 1.0
        plain = _worker(workload, seed, seconds * share, False, share, work / "inputs", work, deadline)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(), "input_digests": digests, "untraced": plain}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        source = plain
        if trace:
            traced = _worker(workload, seed, seconds * share, True, share, work / "inputs", work, deadline)
            record["traced"] = traced
            source = traced
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            layers = dict(traced["layers"])
            layers["trace.overhead_share"] = plain["end_to_end"]["ops_per_s"] / traced["end_to_end"]["ops_per_s"] - 1.0
            values = {name: layers.get(name, 0.0) for name in units}
            shutil.copyfile(work / "spans.jsonl", OUT / f"spans-{workload}-seed{seed}.jsonl")
        else:
            values = {name: plain["end_to_end"][name] for name in units}
        record["result"] = {
            "correct": source["wrong"] == 0 and plain["wrong"] == 0,
            "attempted": source["attempted"],
            "failed": source["failed"],
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        }
        (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summary(record: dict) -> None:
    """Human-readable lines ahead of the result line."""
    result, run = record["result"], record.get("traced", record["untraced"])
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# inputs {json.dumps(record['input_digests'])}")
    print(f"# output_digest {run['output_digest']} samples {json.dumps(run['samples'])}")
    print(f"# details {json.dumps(run['details'])}")
    for problem in run["problems"]:
        print(f"# problem: {problem}")
    print(f"# attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{record['workload']} {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arrowlm").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print("bench/run.py must run from a full checkout (src/arrowlm and tests/oracles.py missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    OUT.mkdir(exist_ok=True)
    records = []
    for name in names:
        record = run_one(name, args.seed, args.seconds, bool(args.trace), deadline)
        _summary(record)
        records.append(record)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
