"""cvlearn benchmark.

    python3 perfbench/run.py --workload {small,spectral} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory. One process, one load generator, BLAS
pinned to one thread. With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
prints the per-layer metrics. Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--write-reference`` recomputes ``reference.json``.

``setup_s`` is the median of three cold set-ups, each in a fresh
process: this one, then two children started with ``--setup-only``.

Times are calibrated against host speed: a fixed probe loop runs
before and after every operation, and each operation's time is scaled
by ``PROBE_REF_S`` over the mean of its two probes. A shared 2-vCPU KVM
guest drifted by 15-50% in speed between runs; the probe cancels most
of that. Raw times are printed next to the calibrated ones.
"""

from __future__ import annotations

import os

import ctypes

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold and turn off heap trimming.

    By default glibc raises the mmap threshold as large blocks are freed
    and trims the heap top as it empties, so whether a 5 MB temporary
    costs fresh page faults depends on the allocation history of the
    process, down to when the cyclic collector frees a dead tape; one
    evaluation then took either about 45 ms or about 60 ms for a whole
    run. With the mmap threshold fixed at 32 MiB (the top of glibc's
    dynamic range) and a 1 GiB trim threshold, blocks under 32 MiB always
    come from a heap that keeps its pages, and larger ones are always
    mapped afresh. Returns False where there is no glibc ``mallopt``.
    """
    try:
        mallopt = _LIBC.mallopt
    except AttributeError:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30))


try:
    _LIBC = ctypes.CDLL("libc.so.6")
except OSError:
    _LIBC = None
MALLOC_FIXED = _fix_malloc_thresholds()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("small", "spectral")
SETUP_SAMPLES = 3     # cold set-ups per untraced run: this process and two children
PROBE_REF_S = 0.004
CHILD_TIMEOUT_S = 120
REFERENCE_SEED = 1
REFERENCE_FILE = HERE / "reference.json"


def _parse(argv):
    p = argparse.ArgumentParser(description="cvlearn benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="recompute reference.json from the current source and exit")
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it as JSON and exit")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_package():
    """Import numpy and cvlearn from this checkout's src/; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import cvlearn
        import cvlearn.cli  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import cvlearn from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    elapsed = time.perf_counter() - started
    if not Path(cvlearn.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: cvlearn came from {cvlearn.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return elapsed


# ---------------------------------------------------------------------------
# host-speed probe and operation runner


class Probe:
    """A fixed loop of small matmuls, Python bookkeeping and vector
    updates, in the mix of the training step; its time tracks host speed."""

    def __init__(self, np):
        self.np = np
        self.a = np.full((32, 64), 0.5)
        self.w = np.full((64, 64), 0.01)
        self.v = np.full(100_000, 0.5)
        self.g = np.full(100_000, 0.25)
        self.times: list[float] = []

    def __call__(self) -> float:
        np = self.np
        started = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            b = np.maximum(self.a @ self.w, 0.0)
            acc += float(b[0, 0])
        for _ in range(4):
            c = self.v * 0.9 + self.g
            acc += float(np.sqrt(c * c + 1e-8)[0])
        elapsed = time.perf_counter() - started
        self.times.append(elapsed)
        return elapsed


class Runner:
    """Runs operations, counts attempts and failures, and times them
    between probes."""

    def __init__(self, probe: Probe, check_error):
        self.probe = probe
        self.check_error = check_error
        self.attempted = 0
        self.failed = 0

    def execute(self, op) -> tuple[bool, float]:
        """Run and check one operation; returns (ok, seconds of the run alone)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = time.perf_counter() - started
            self._fail(op, traceback.format_exc())
            return False, elapsed
        elapsed = time.perf_counter() - started
        try:
            op.check(out)
        except self.check_error as e:
            self._fail(op, str(e))
            return False, elapsed
        except Exception:
            self._fail(op, traceback.format_exc())
            return False, elapsed
        return True, elapsed

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {op.kind} {op.label} failed: {message}", file=sys.stderr)

    def timed_round(self, ops) -> list[tuple]:
        """(op, ok, raw seconds, calibrated seconds) per operation.

        Each operation starts after a full collection, untimed: the tapes
        of a training call are cyclic garbage, and which later operation's
        allocations would otherwise trigger the collection that frees them,
        or hold them at its memory peak, was a matter of chance."""
        rows = []
        before = self.probe()
        for op in ops:
            gc.collect()
            ok, elapsed = self.execute(op)
            after = self.probe()
            rows.append((op, ok, elapsed, elapsed * PROBE_REF_S / ((before + after) / 2)))
            before = after
        return rows


# ---------------------------------------------------------------------------
# end-to-end metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _central_mean(values):
    """Mean of the middle half of the samples (the interquartile mean):
    steadier than the median over a run, and blind to the slowest and
    fastest quarter, where host stalls land."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle) if middle else 0.0


def end_to_end(rounds, wl, setups, archs, batch) -> tuple[dict, dict]:
    s = wl.sizes
    steps = s.epochs * math.ceil(s.train_m / batch)
    m, raw = {}, {}
    for arch in archs:
        samples = [(steps / cal, steps / rawt) for r in rounds
                   for op, ok, rawt, cal in r if ok and op.kind == "train" and op.label == arch]
        m[f"steps_per_s.{arch}"] = (_central_mean([c for c, _ in samples]), "1/s")
        raw[f"steps_per_s.{arch}"] = (_central_mean([x for _, x in samples]), len(samples))

    def per_round(kind, numerator=None):
        cal_vals, raw_vals = [], []
        for r in rounds:
            sel = [(rawt, cal) for op, ok, rawt, cal in r if op.kind == kind]
            if not sel or not all(ok for op, ok, _, _ in r if op.kind == kind):
                continue
            c, x = sum(cal for _, cal in sel), sum(rawt for rawt, _ in sel)
            cal_vals.append(numerator / c if numerator else c)
            raw_vals.append(numerator / x if numerator else x)
        return _central_mean(cal_vals), _central_mean(raw_vals), len(cal_vals)

    for name, kind, num, unit in (("eval_rows_per_s", "eval", len(archs) * s.eval_m, "1/s"),
                                  ("recipe_s", "recipe", None, "s"),
                                  ("pipeline_s", "cli", None, "s")):
        c, x, n = per_round(kind, num)
        m[name] = (c, unit)
        raw[name] = (x, n)
    m["setup_s"] = (_median([cal for _, cal in setups]), "s")
    raw["setup_s"] = (_median([rawt for rawt, _ in setups]), len(setups))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m, raw


# ---------------------------------------------------------------------------
# per-layer metrics


SELF_SPANS = ("autodiff.backward", "models.forward", "losses.adam_step",
              "losses.task_loss", "losses.hilbert_penalty", "transforms.hilbert",
              "transforms.dft", "train.train_model", "train.evaluate",
              "recipes.run_channel_id", "recipes.run_cvmnist500")
TOTAL_SPANS = ("data.load_cvds", "data.save_cvds", "data.dft_encode",
               "data.gen_channel_dataset", "models.checkpoint",
               "cli.gen", "cli.train", "cli.eval", "cli.diag", "cli.hilbert")
COUNTS = (("transforms.hilbert.calls", "count"), ("transforms.dft.calls", "count"),
          ("transforms.dft.flops", "flop"), ("losses.adam_step.bytes", "bytes"),
          ("data.cvds.bytes", "bytes"), ("models.checkpoint.bytes", "bytes"))


def per_layer(windows, tracer, archs, overhead, coverage) -> dict:
    """Per-layer figures per traced round: times scaled by the round's
    calibration factor, counts as recorded (they repeat exactly)."""
    import numpy as np
    n = len(windows)

    def mean_time(f):
        return sum(f(w) * factor for w, factor in windows) / n

    m = {}
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = (mean_time(lambda w: w["self"].get(name, 0.0)), "s")
    for name in TOTAL_SPANS:
        m[f"{name}.s"] = (mean_time(lambda w: w["total"].get(name, 0.0)), "s")
    for layer in ("diagnostics", "cli"):
        m[f"{layer}.self_s"] = (mean_time(lambda w: sum(
            v for k, v in w["self"].items() if k.startswith(layer + "."))), "s")
    for name, unit in COUNTS:
        m[name] = (sum(w["counts"].get(name, 0.0) for w, _ in windows) / n, unit)
    analytic_steps = sum(w["by_arch"].get(("losses.adam_step", "analytic"), 0) for w, _ in windows)
    dft_in_steps = sum(w["counts"].get("transforms.dft.calls_in_analytic_steps", 0.0)
                       for w, _ in windows)
    m["transforms.dft.calls_per_step.analytic"] = (
        dft_in_steps / analytic_steps if analytic_steps else 0.0, "count")
    for arch in archs:
        nodes = tracer.nodes.get(arch, set())
        m[f"autodiff.nodes_per_step.{arch}"] = (float(max(nodes)) if nodes else 0.0, "count")
        steps = [ms * factor for w, factor in windows for ms in w["steps"].get(arch, [])]
        for q in (50, 99):
            value = float(np.percentile(steps, q)) if steps else 0.0
            m[f"train.step_ms.p{q}.{arch}"] = (value, "ms")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.coverage"] = (coverage, "ratio")
    return m


def coverage_problems(windows, tracer, kind, non_analytic_absent) -> list[str]:
    calls = {}
    by_arch = {}
    for w, _ in windows:
        for k, v in w["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in w["by_arch"].items():
            by_arch[k] = by_arch.get(k, 0) + v
    problems = [f"wrapper target missing: {t}" for t in tracer.missing]
    problems += [f"expected span {s} recorded no calls" for s in kind.expected
                 if not calls.get(s)]
    problems += [f"span {s} fired {calls[s]} times but is predicted absent"
                 for s in kind.absent if calls.get(s)]
    problems += [f"span {name} fired {c} times under {arch}"
                 for (name, arch), c in sorted(by_arch.items())
                 if name in non_analytic_absent and arch in ("rvnn", "cvnn", "steinmetz")]
    return problems


# ---------------------------------------------------------------------------


def _environment(np, probe: Probe) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ms = [t * 1e3 for t in probe.times]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "malloc_thresholds_fixed": MALLOC_FIXED,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "probe_ms": {"median": _median(ms), "min": min(ms, default=0.0),
                     "max": max(ms, default=0.0), "n": len(ms),
                     "reference": PROBE_REF_S * 1e3},
    }


def _reference_round(wl_mod, kind, workdir, runner) -> object:
    wl = wl_mod.Workload(kind, REFERENCE_SEED, kind.reference, workdir)
    wl.setup()
    for op in wl.round_ops():
        runner.execute(op)
    return wl


def cold_setup(wl, runner, probe, import_s) -> tuple[float, float]:
    """Set-up as a fresh process pays it, up to the first timed call:
    the import (timed before), inputs and the warm-up calls, one
    ``train_model`` and one ``evaluate`` per architecture. Returns
    (raw seconds, calibrated seconds)."""
    before = probe()
    started = time.perf_counter()
    wl.setup()
    for op in wl.train_ops():
        runner.execute(op)
    elapsed = time.perf_counter() - started
    after = probe()
    return (import_s + elapsed,
            (import_s / before + elapsed / ((before + after) / 2)) * PROBE_REF_S)


def child_setups(args, wl, runner, n) -> list[tuple[float, float]]:
    """Cold set-ups timed in ``n`` fresh processes, one after another;
    their warm-up outputs must equal this process's."""
    setups = []
    for _ in range(n):
        runner.attempted += 1
        stderr = ""
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            stderr = proc.stderr
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            runner.attempted += child["attempted"]
            runner.failed += child["failed"]
            if proc.returncode != 0 or child["failed"]:
                raise ValueError(f"exit {proc.returncode}")
            differ = sorted(k for k, v in child["first"].items() if wl.first.get(k) != v)
            if differ:
                raise ValueError(f"outputs differ from this process's: {', '.join(differ)}")
            setups.append((child["raw_s"], child["cal_s"]))
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
            runner.failed += 1
            print(f"perfbench: set-up child failed ({e}):\n{stderr}", file=sys.stderr)
    return setups


def write_reference(wl_mod, probe) -> int:
    out = {"seed": REFERENCE_SEED,
           "tolerance": {"rtol": 1e-6, "atol": 1e-12, "accuracy_rows": 1},
           "values": {}}
    runner = Runner(probe, wl_mod.CheckError)
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        for name in WORKLOAD_NAMES:
            wl = _reference_round(wl_mod, wl_mod.KINDS[name], work, runner)
            out["values"][name] = wl.reference_values()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.failed:
        print("perfbench: reference round failed; reference.json not written", file=sys.stderr)
        return 1
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_package()
    import numpy as np
    import spans
    import workloads as wl_mod

    probe = Probe(np)
    if args.write_reference:
        return write_reference(wl_mod, probe)

    kind = wl_mod.KINDS[args.workload]
    runner = Runner(probe, wl_mod.CheckError)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    problems: list[str] = []
    try:
        wl = wl_mod.Workload(kind, args.seed, kind.full, work)
        setups = [cold_setup(wl, runner, probe, import_s)]
        if args.setup_only:
            print(json.dumps({"raw_s": setups[0][0], "cal_s": setups[0][1], "first": wl.first,
                              "attempted": runner.attempted, "failed": runner.failed}))
            return 0
        if not args.trace:
            setups += child_setups(args, wl, runner, SETUP_SAMPLES - 1)

        # measurement: whole rounds until the next one would overrun
        tracer = spans.Tracer(wl_mod.cv) if args.trace else None
        rounds, traced, windows = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            is_traced = bool(args.trace) and len(rounds) > len(traced)
            started = time.perf_counter()
            ops = wl.round_ops()
            if is_traced:
                # wrappers are in place only while an operation runs, so
                # the output checks between operations leave no spans
                ops = [dataclasses.replace(op, run=tracer.traced(op.run)) for op in ops]
                mark = tracer.snapshot()
            rows = runner.timed_round(ops)
            if is_traced:
                raw = sum(r[2] for r in rows)
                windows.append((tracer.window(mark), sum(r[3] for r in rows) / raw))
                traced.append(rows)
            else:
                rounds.append(rows)
            last = time.perf_counter() - started
            enough = bool(rounds) and (not args.trace or bool(traced))
            if enough and time.perf_counter() + last > deadline:
                break

        # output checks against the stored reference values
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        ref_wl = _reference_round(wl_mod, kind, work / "reference", runner)
        runner.attempted += 1
        try:
            mismatches = wl_mod.compare_reference(
                ref_wl.reference_values(), reference["values"][kind.name],
                reference["tolerance"], ref_wl.reference_rows())
        except (TypeError, KeyError) as e:
            mismatches = [f"reference values unusable: {e!r}"]
        if mismatches:
            runner.failed += 1
            problems += [f"reference mismatch: {p}" for p in mismatches]

        env = _environment(np, probe)
        print("env " + json.dumps(env))
        if args.trace:
            untraced_s = _median([sum(r[3] for r in rows) for rows in rounds])
            traced_s = _median([sum(r[3] for r in rows) for rows in traced])
            covered = sum(w["top"] for w, _ in windows)
            op_time = sum(r[2] for rows in traced for r in rows)
            problems += coverage_problems(windows, tracer, kind, wl_mod.NON_ANALYTIC_ABSENT)
            metrics = per_layer(windows, tracer, wl_mod.ARCHS,
                                traced_s / untraced_s if untraced_s else 0.0,
                                covered / op_time if op_time else 0.0)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                                     "env": env, "traced_rounds": len(traced),
                                     "untraced_rounds": len(rounds)})
            print(f"rounds: {len(rounds)} untraced, {len(traced)} traced; "
                  f"traced results equal untraced: {'yes' if not runner.failed else 'no'}; "
                  f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
            for name, (value, unit) in metrics.items():
                print(f"  {name:<42} {value:>16.6g} {unit}")
        else:
            metrics, raw = end_to_end(rounds, wl, setups, wl_mod.ARCHS, wl_mod.BATCH)
            print(f"rounds: {len(rounds)}; calibrated (raw, samples)")
            for name, (value, unit) in metrics.items():
                extra = f"  (raw {raw[name][0]:.6g}, n={raw[name][1]})" if name in raw else ""
                print(f"  {name:<22} {value:>14.6g} {unit}{extra}")
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    correct = runner.failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
