"""Benchmark for mspl.

    python3 bench/run.py --workload sharp-sweep --seed 0 --seconds 25 --trace 0

Runs one workload (see `workloads.py`) from the root of a source checkout,
checks its outputs, and prints two lines: a JSON detail record
(environment, every sample, failures, metrics that could not be measured)
and, last, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`END_TO_END`):
set-up is the median of several cold interpreter starts, each importing
mspl and filling the caches the workload's first solve fills; the
workload then repeats in this process as often as fits in `--seconds`,
and at least `MIN_REPS` times, and `wall_s` is the median repeat.
With `--trace 1` the metrics are the per-layer ones (`PER_LAYER`): the workload runs once
untraced and once with every layer's public functions wrapped by
`tracer.Tracer`; the difference of the two is `trace.overhead_s`.  A
layer's time is the sum of its span durations, so layers running on the
sweep's two pool threads can add up to more than the wall time.

A metric that cannot be measured (a ratio with a zero base, a layer whose
function no longer exists) is printed as 0 and named under "missing" in
the detail record.  BLAS/OpenMP pools are pinned to one thread in this
process and its children, and every warning is shown ("always" filter)
and counted.  Scratch files go to `bench/.work/` and are removed.
"""

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("energy_scaled", "1"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.import_modules", "count"),
    ("cli.main_s", "s"),
    ("sharp.calibrate_s", "s"),
    ("sharp.optimize_calls", "count"),
    ("sharp.optimize_s", "s"),
    ("sharp.optimize_self_s", "s"),
    ("sharp.candidates", "count"),
    ("sharp.useful_ratio", "1"),
    ("sharp.n_jumps_min_eps", "count"),
    ("sharp.runtime_warnings", "count"),
    ("core.wsi_calls", "count"),
    ("core.wsi_segments", "count"),
    ("core.wsi_s", "s"),
    ("core.wsi_ns_per_segment", "ns"),
    ("diffuse.minimize_calls", "count"),
    ("diffuse.iterations", "count"),
    ("diffuse.kernel_evals", "count"),
    ("diffuse.evals_per_iter", "1"),
    ("diffuse.minimize_s", "s"),
    ("diffuse.init_s", "s"),
    ("diffuse.grad_us", "us"),
    ("diffuse.converged_ratio", "1"),
    ("diffuse.restart_spread", "1"),
    ("asymptotics.period_law_profile_s", "s"),
    ("asymptotics.extract_period_s", "s"),
    ("asymptotics.period_ratio_max_dev", "1"),
    ("reports.sweep_self_s", "s"),
    ("reports.emit_s", "s"),
    ("reports.emit_bytes", "bytes"),
    ("solve.unconverged_frac", "1"),
    ("trace.overhead_s", "s"),
]

MAX_RUN_S = 150.0  # stop repeating well inside the 180 s a run may take
MIN_REPS = 2  # so that no wall time rests on one sample


class WarningCounter:
    def __init__(self):
        self.runtime = 0
        self.sources: dict[str, int] = {}


@contextmanager
def counting_warnings():
    """Show every warning occurrence and count it."""
    counter = WarningCounter()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        show = warnings.showwarning

        def count(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                counter.runtime += 1
            where = f"{os.path.basename(filename)}:{lineno}"
            counter.sources[where] = counter.sources.get(where, 0) + 1
            show(message, category, filename, lineno, file, line)

        warnings.showwarning = count
        yield counter


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONWARNINGS"] = "always"
    return env


def environment(load_1m: float) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
        "loadavg_1m": load_1m,
    }


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.ops
        self.failed += outcome.failed_ops
        for op, messages in outcome.failures.items():
            self.failures.extend(f"{op}: {m}" for m in messages)

    def error(self, op: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.failures.append(f"{op}: raised {last}")


def attempt(tally: Tally, op: str, fn, extra_check=None):
    """Run one operation; an exception or a failed check is a failed
    operation, never the end of the run."""
    try:
        outcome = fn()
    except Exception as exc:  # the run must go on and report it
        tally.error(op, exc)
        return None
    if extra_check is not None:
        for message in extra_check(outcome):
            outcome.fail(op, message)
    tally.add(outcome)
    return outcome


def cold_start(wl, tally: Tally, op: str, code: str):
    """One fresh interpreter running `code`; a nonzero exit is a failed
    operation.  Returns the finished child, or None if it failed."""
    from workloads import Outcome, spawn

    children = []

    def launch():
        child = spawn([sys.executable, "-c", code], wl.env, wl.workdir)
        out = Outcome(seconds=child.seconds)
        if child.returncode != 0:
            out.fail(op, f"exit code {child.returncode}: {child.stderr[-300:]}")
        else:
            children.append(child)
        return out

    attempt(tally, op, launch)
    return children[0] if children else None


def end_to_end(wl, seconds: float, tally: Tally, warn: WarningCounter, t_start: float, extra_check):
    starts = [cold_start(wl, tally, "setup", wl.setup_code()) for _ in range(wl.sizes.setup_samples)]
    setup = [c.seconds for c in starts if c is not None]
    wl.prepare()
    outcomes = []
    reps = 0
    t0 = time.perf_counter()
    while True:
        out = attempt(tally, wl.name, wl.run, extra_check)
        reps += 1
        if out is not None:
            outcomes.append(out)
        done = [o.seconds for o in outcomes]
        now = time.perf_counter()
        # the next repeat is expected to take about the median one
        next_s = median(done) if done else 0.0
        if reps >= MIN_REPS and now - t0 + next_s > seconds:
            break
        if now - t_start + next_s > MAX_RUN_S:
            break
    energies = sorted({o.energy_scaled for o in outcomes})
    if len(energies) > 1:
        tally.failed += 1
        tally.failures.append(f"{wl.name}: energy differs between repeats: {energies}")
    last = outcomes[-1] if outcomes else None
    rss = [o.peak_rss_mb for o in outcomes if o.peak_rss_mb is not None]
    metrics = {
        "wall_s": median(done) if done else None,
        "setup_s": median(setup) if setup else None,
        "energy_scaled": last.energy_scaled if last else None,
        "peak_rss_mb": max(rss)
        if rss
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    solves = sum(o.solves for o in outcomes)
    detail = {
        "samples": {"wall_s": done, "setup_s": setup},
        "unconverged_frac": sum(o.unconverged for o in outcomes) / solves if solves else None,
        "runtime_warnings": warn.runtime + sum(o.child_warnings for o in outcomes),
        "warning_sources": warn.sources,
        "outputs": [o.detail for o in outcomes],
    }
    return metrics, detail


def import_probe(wl, tally: Tally, n: int = 3):
    """Median seconds of `import <target>` in a fresh interpreter, and the
    number of modules it loads."""
    code = (
        "import json, sys, time\n"
        "before = len(sys.modules)\n"
        "t0 = time.perf_counter()\n"
        f"import {wl.import_target}\n"
        "dt = time.perf_counter() - t0\n"
        "print(json.dumps({'seconds': dt, 'modules': len(sys.modules) - before}))\n"
    )
    recs = [json.loads(c.stdout) for c in (cold_start(wl, tally, "import", code) for _ in range(n)) if c]
    if not recs:
        return None, None
    return median(r["seconds"] for r in recs), max(r["modules"] for r in recs)


def calibrate_probe(wl, tally: Tally):
    """Calibration seconds, seen from outside: the first public solve in
    this process calibrates, an identical second one does not."""
    from workloads import Outcome

    import mspl

    times = []

    def solve():
        t0 = time.perf_counter()
        mspl.optimize_sharp(1e-2, wl.w, mspl.SharpOptions(refine=False))
        times.append(time.perf_counter() - t0)
        return Outcome(seconds=times[-1])

    attempt(tally, "calibrate", solve)
    attempt(tally, "calibrate", solve)
    return times[0] - times[1] if len(times) == 2 else None


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from the spans; a metric whose span could not be
    wrapped is left out, so it is reported as missing."""
    from tracer import self_time

    kids = tracer.children()
    m: dict = {}

    opt = tracer.named("sharp.optimize")
    if opt is not None:
        cands = sum(s.attrs.get("n_candidates", 0) for s in opt)
        m["sharp.optimize_calls"] = len(opt)
        m["sharp.optimize_s"] = sum(s.duration for s in opt)
        m["sharp.optimize_self_s"] = sum(self_time(s, kids) for s in opt)
        m["sharp.candidates"] = cands
        m["sharp.useful_ratio"] = len(opt) / cands if cands else None
        with_eps = [s for s in opt if "eps" in s.attrs]
        if with_eps:
            m["sharp.n_jumps_min_eps"] = min(with_eps, key=lambda s: s.attrs["eps"]).attrs["n_jumps"]

    wsi = tracer.named("core.wsi")
    if wsi is not None:
        segments = sum(s.attrs.get("segments", 0) for s in wsi)
        wsi_s = sum(s.duration for s in wsi)
        m["core.wsi_calls"] = len(wsi)
        m["core.wsi_segments"] = segments
        m["core.wsi_s"] = wsi_s
        m["core.wsi_ns_per_segment"] = wsi_s / segments * 1e9 if segments else None

    mins = tracer.named("diffuse.minimize")
    if mins is not None:
        m["diffuse.minimize_calls"] = len(mins)
        m["diffuse.iterations"] = sum(s.attrs.get("iterations", 0) for s in mins)
        m["diffuse.minimize_s"] = sum(s.duration for s in mins)
        if mins:
            m["diffuse.converged_ratio"] = sum(bool(s.attrs.get("converged")) for s in mins) / len(mins)
    kernel = tracer.named("diffuse.kernel")
    if kernel is not None:
        m["diffuse.kernel_evals"] = len(kernel)
        if m.get("diffuse.iterations"):
            m["diffuse.evals_per_iter"] = len(kernel) / m["diffuse.iterations"]
    inits = tracer.named("diffuse.init")
    if inits is not None:
        init_ids = {s.sid for s in inits}
        m["diffuse.init_s"] = sum(s.duration for s in inits if s.parent not in init_ids)
    restarts = tracer.named("diffuse.restarts")
    finals = [s.attrs["finals"] for s in restarts or () if s.attrs.get("finals")]
    if finals:
        m["diffuse.restart_spread"] = (max(finals[-1]) - min(finals[-1])) / min(finals[-1])

    law = tracer.named("asymptotics.period_law_profile")
    if law is not None:
        m["asymptotics.period_law_profile_s"] = sum(s.duration for s in law)
    ext = tracer.named("asymptotics.extract_period")
    if ext is not None:
        m["asymptotics.extract_period_s"] = sum(s.duration for s in ext)
        ratios = [s.attrs["ratio"] for s in ext if "ratio" in s.attrs]
        if ratios:
            m["asymptotics.period_ratio_max_dev"] = max(abs(r - 1.0) for r in ratios)

    sweeps = tracer.named("reports.sweep")
    if sweeps is not None:
        m["reports.sweep_self_s"] = sum(self_time(s, kids) for s in sweeps)
    emits = tracer.named("reports.emit")
    if emits is not None:
        m["reports.emit_s"] = sum(s.duration for s in emits)
        m["reports.emit_bytes"] = sum(s.attrs.get("bytes", 0) for s in emits)
    mains = tracer.named("cli.main")
    if mains is not None:
        m["cli.main_s"] = sum(s.duration for s in mains)
    return m


def traced(wl, tally: Tally, warn: WarningCounter, extra_check):
    from tracer import Tracer

    import_s, import_modules = import_probe(wl, tally)
    calibrate_s = calibrate_probe(wl, tally)
    wl.prepare()
    plain = attempt(tally, wl.name, wl.run_inprocess, extra_check)
    tracer = Tracer()
    before = warn.runtime
    with tracer.installed():
        out = attempt(tally, wl.name, wl.run_inprocess, extra_check)
    runtime_warnings = warn.runtime - before
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    metrics["cli.import_modules"] = import_modules
    metrics["sharp.calibrate_s"] = calibrate_s
    metrics["sharp.runtime_warnings"] = runtime_warnings
    metrics["diffuse.grad_us"] = wl.kernel_probe()
    metrics["solve.unconverged_frac"] = out.unconverged / out.solves if out else None
    metrics["trace.overhead_s"] = out.seconds - plain.seconds if out and plain else None
    detail = {
        "untraced_s": plain.seconds if plain else None,
        "traced_s": out.seconds if out else None,
        "spans": len(tracer.spans),
        "missing_bindings": tracer.missing,
        "import_target": wl.import_target,
        "warning_sources": warn.sources,
        "outputs": [o.detail for o in (plain, out) if o],
    }
    return metrics, detail


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                  extra_check=None) -> tuple[dict, dict]:
    """Run one workload; return (result object, detail record)."""
    t_start = time.perf_counter()
    load_1m = os.getloadavg()[0]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from workloads import FULL, TOY, WORKLOADS

    workdir = BENCH / ".work" / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        wl = WORKLOADS[workload](TOY if toy else FULL, seed, str(workdir), child_env())
        with counting_warnings() as warn:
            if trace:
                values, detail = traced(wl, tally, warn, extra_check)
            else:
                values, detail = end_to_end(wl, seconds, tally, warn, t_start, extra_check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = PER_LAYER if trace else END_TO_END
    missing = sorted(name for name, _ in spec if values.get(name) is None)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name] if values.get(name) is not None else 0.0, "unit": unit}
            for name, unit in spec
        },
    }
    detail.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "toy": toy,
            "env": environment(load_1m),
            "missing": missing,
            "failures": tally.failures,
            "run_s": time.perf_counter() - t_start,
        }
    )
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["sharp-sweep", "diffuse-period", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    if not (SRC / "mspl" / "__init__.py").is_file():
        print(f"error: no mspl sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
