"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads small spectral \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/steadiness.json

Every run lasts ``run_seconds`` from BENCHMARK.json, the length the
bounds apply to. For every workload and end-to-end metric this prints
the median of the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median. It checks each spread against the metric's bound.

With ``--out``, the set of runs is appended to that file's ``sets``.
Once the file holds two sets or more, the last two are compared: for
each metric, how much worse the second median is than the first, as a
share of the first, is checked against the bound too, and the bound the
evidence supports is recorded as three times the larger of the widest
spread and the shift of the medians, within [0.05, 0.25]: ten runs a
set cannot vouch for a bound tighter than 5%.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUND_FLOOR, BOUND_CAP = 0.05, 0.25


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workloads, seeds, seconds, bounds) -> tuple[dict, bool]:
    ok = True
    result_set = {"started": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"), "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return result_set, False
            result = json.loads(lines[-1])
            env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "failed": result["failed"], "probe_ms": env["probe_ms"]["median"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}",
                  flush=True)
            ok &= result["correct"]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            s = spread(values)
            bound = bounds[name]
            summary[name] = {"median": statistics.median(values), "spread": s}
            flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            print(f"  {workload:<9} {name:<22} median {statistics.median(values):>12.6g}"
                  f"  spread {s:7.4f}  bound {bound}  {flag}")
        result_set["workloads"][workload] = {"runs": runs, "summary": summary}
    return result_set, ok


def compare_sets(first: dict, second: dict, better: dict, bounds: dict) -> tuple[dict, bool]:
    """Shift of each median from the first set to the second, and the
    bound the two sets support."""
    ok = True
    out = {}
    for workload, w2 in second["workloads"].items():
        if workload not in first["workloads"]:
            continue
        s1, s2 = first["workloads"][workload]["summary"], w2["summary"]
        out[workload] = {}
        for name in s2:
            m1, m2 = s1[name]["median"], s2[name]["median"]
            shift = (m2 - m1) / m1
            worse = -shift if better[name] == "higher" else shift
            widest = max(s1[name]["spread"], s2[name]["spread"])
            supported = min(BOUND_CAP, max(BOUND_FLOOR, 3 * max(widest, abs(shift))))
            out[workload][name] = {"shift": shift, "widest_spread": widest,
                                   "supported_bound": supported}
            ok &= worse <= bounds[name]
            flag = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
            print(f"  {workload:<9} {name:<22} median shift {shift:+8.4f}  widest spread"
                  f" {widest:7.4f}  supports bound {supported:.3f}  (bound {bounds[name]})"
                  f"  {flag}")
    return out, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    result_set, ok = run_set(args.workloads, args.seeds, seconds, bounds)
    if args.out:
        out = Path(args.out)
        report = (json.loads(out.read_text(encoding="utf-8")) if out.exists()
                  else {"run_seconds": seconds, "sets": []})
        if report["run_seconds"] != seconds:
            print(f"{out} holds runs of {report['run_seconds']} s, not {seconds} s")
            return 1
        report["sets"].append(result_set)
        if len(report["sets"]) >= 2:
            print("between the last two sets:")
            report["between_sets"], same = compare_sets(
                report["sets"][-2], report["sets"][-1], better, bounds)
            ok &= same
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
