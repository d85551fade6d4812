"""Self-test of the benchmark at toy sizes (under two minutes).

    python3 bench/selftest.py

Checks that the tracer reports a missing binding and counts overlapping
child spans once, that every workload, traced and untraced, prints every metric of
BENCHMARK.json with its unit (or names it as missing), that a failing
output check and a raising operation each count as a failed operation
without ending the run, and that the benchmark refuses to run without
the package sources.  Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def bench_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_printed_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_cli(ROOT, workload, trace)
            require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            *_, detail_line, result_line = proc.stdout.strip().splitlines()
            result, detail = json.loads(result_line), json.loads(detail_line)
            require(set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0,
                    f"{workload} trace={trace}: toy run failed: {detail['failures']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{workload} trace={trace}: printed {got}, want {want}")
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float)), f"{name} is not a number")
                if m["value"] == 0 and key == "end_to_end":
                    require(name in detail["missing"], f"{workload}: {name} is 0 but not missing")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, missing {detail['missing']}")


def check_failures_counted() -> None:
    result, detail = run.run_benchmark(
        "sharp-sweep", 0, 1.0, False, toy=True,
        extra_check=lambda outcome: ["deliberately failing check"],
    )
    require(not result["correct"], "a failing check left the run correct")
    require(result["failed"] >= 1, "a failing check was not counted")
    require(any("deliberately failing check" in f for f in detail["failures"]),
            "the failing check is not reported")
    require(result["metrics"]["wall_s"]["value"] > 0, "the run stopped at the failing check")

    tally = run.Tally()

    def boom():
        raise RuntimeError("deliberately raising operation")

    require(run.attempt(tally, "op", boom) is None, "a raising operation returned a result")
    require((tally.attempted, tally.failed) == (1, 1), "a raising operation was not counted")
    print(f"ok  failures counted: {result['failed']} of {result['attempted']} failed")


def check_tracer() -> None:
    from tracer import Span, Tracer, self_time

    tracer = Tracer()
    with tracer.installed([("mspl.sharp", "no_such_function", "x", None)]):
        pass
    require(tracer.missing == ["mspl.sharp.no_such_function"], "a missing binding was not reported")
    parent = Span(1, "p", 0.0, 10.0, None, 0, {})
    kids = {1: [Span(2, "c", 1.0, 4.0, 1, 1, {}), Span(3, "c", 3.0, 6.0, 1, 2, {})]}
    require(abs(self_time(parent, kids) - 5.0) < 1e-12, "overlapping children counted twice")
    print("ok  tracer reports missing bindings and overlapping children")


def check_refuses_without_sources() -> None:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench_cli(bare, "cli-cold", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "ran without the package sources")
    require(proc.stdout.strip() == "", "printed a result without the package sources")
    print("ok  refuses to run without sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tracer()
    check_refuses_without_sources()
    check_failures_counted()
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
