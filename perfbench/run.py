"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload node_racy --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a traced run
that follows an untraced run of the same workload and seed in a child
process (the difference is the tracing overhead).  ``--workload all``
runs the three workloads one after another, each in a child process,
and sums them up in the last line, with metric names prefixed by the
workload's.  See README.md.
"""

import argparse
import faulthandler
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("node_racy", "cluster_rw", "record_autopsy")
#: A run that has not ended after this long prints every thread's stack
#: to standard error and exits with status 1; the untraced child of a
#: traced run is killed after CHILD_LIMIT seconds.
RUN_LIMIT = 170
CHILD_LIMIT = 100


def _fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        _fail(f"cannot read BENCHMARK.json: {error}")


def _child(args, workload: str, trace: int,
           limit: float) -> "tuple[list[str], dict]":
    """Run *workload* in a child process; returns the lines it printed
    before its result line, and the result."""
    try:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
            timeout=limit)
    except subprocess.TimeoutExpired as expired:
        _fail(f"{workload} still running after {limit} s:\n"
              f"{expired.stderr}")
    if child.returncode != 0:
        _fail(f"{workload} failed:\n{child.stderr}")
    lines = child.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _run_all(args) -> None:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = _child(args, workload, args.trace, RUN_LIMIT + 10)
        print(f"== {workload}", *lines, sep="\n")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}")
    spec = _load_spec()
    if args.workload == "all":
        _run_all(args)
        return
    faulthandler.dump_traceback_later(RUN_LIMIT, exit=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    untraced = None
    if args.trace:
        # Untraced figures of the same workload and seed, from a child
        # process so that this process's warm caches do not flatter them.
        _lines, result = _child(args, args.workload, 0, CHILD_LIMIT)
        untraced = result["metrics"]

    from perfbench import workloads
    from perfbench.layers import admit_growth, per_layer

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        run = workloads.Workload(root, args.seed, args.seconds, tracer)
        outcome = getattr(workloads, args.workload)(run)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(root, ignore_errors=True)

    for name, ok, detail in outcome.checks:
        if not ok:
            print(f"CHECK FAILED  {name}: {detail}")
    for op, (attempted, failed) in sorted(outcome.ops.items()):
        print(f"ops  {op:<10} attempted {attempted:6d}  failed {failed}")
    if args.trace:
        figures = per_layer(tracer, run.layer, workloads.TIMED_PHASES)
        growth = admit_growth(tracer)
        if growth:
            print("admit cache over the uploads phase "
                  "(slice, uploads/s, file bytes, flush ms):")
            for row in growth:
                print("  %d %10.1f %10d %8.2f" % row)
        self_ms = tracer.self_seconds()
        print("layer self time (ms, traced run):")
        for name, seconds in sorted(self_ms.items(), key=lambda i: -i[1]):
            print(f"  {name:<42} {seconds * 1e3:10.1f}")
        print("end-to-end, untraced vs traced (tracing overhead):")
        for name, (value, unit) in sorted(outcome.metrics.items()):
            base = untraced[name]["value"]
            print(f"  {name:<26} {base:14.4f} {value:14.4f} {unit:<10} "
                  f"{100.0 * (value - base) / base:+7.1f}%")
        base = untraced["reports_per_s"]["value"]
        figures["trace.overhead_pct"] = 100.0 * (
            base / outcome.metrics["reports_per_s"][0] - 1.0)
        tracer.dump(work / f"spans-{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics = {}
        for metric in wanted:
            value, unit = outcome.metrics[metric["name"]]
            if unit != metric["unit"]:
                _fail(f"{metric['name']} measured in {unit}, "
                      f"BENCHMARK.json says {metric['unit']}")
            metrics[metric["name"]] = {"value": value, "unit": unit}
    for name, metric in metrics.items():
        print(f"metric  {name:<36} {metric['value']:16.4f} {metric['unit']}")
    attempted = sum(tally[0] for tally in outcome.ops.values())
    failed = sum(tally[1] for tally in outcome.ops.values())
    print(json.dumps({"correct": outcome.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
