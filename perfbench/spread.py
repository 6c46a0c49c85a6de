"""Run one workload on several seeds and print, for each end-to-end
metric, the distance between the first and third quartile of its values
as a share of their median, beside the metric's bound, then each run's
value as a share of that median.

    python3 perfbench/spread.py node_racy 1,2,3,4,5,6,7,8,9,10

This is how the bounds in BENCHMARK.json were set (see README.md).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload = sys.argv[1]
    seeds = [int(seed) for seed in sys.argv[2].split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: "dict[str, list[float]]" = {}
    for seed in seeds:
        child = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if child.returncode != 0:
            print(f"seed {seed}: exit {child.returncode}\n{child.stderr}")
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        middle = statistics.median(series)
        first, _, third = statistics.quantiles(series, n=4)
        print(f"{metric['name']:<26} median {middle:14.4f} "
              f"spread {(third - first) / middle:6.3f} "
              f"bound {metric['bound']:.2f}  "
              + " ".join(f"{value / middle:.2f}" for value in series))


if __name__ == "__main__":
    main()
