"""The three benchmark workloads, their inputs and their output checks.

Every workload uses public `mspl` names and the default configuration
only.  An operation returns an `Outcome`: the seconds it took to reach
its solution (checks excluded) and the checks it failed.

sharp-sweep     `sweep_scaling` + `emit_sweep` at (alpha, beta) = (0.5, 1)
                over eps = 1e-2 .. 1e-5: the eps**(2/3) energy law.
diffuse-period  `minimize_with_restarts(1e-4, (0.5, 1), GradedMesh(8192, 2),
                restarts=3, seed)` and `extract_period` at s = 0.3, 0.5, 0.8:
                the local period law.
cli-cold        rounds of fresh `python -m mspl.cli` processes (`cell`,
                `preset`, `sharp-min`): import and calibration cost.

The seed is passed to `minimize_with_restarts`.  With restarts=3 the
three starting fields (graded, sharp layout, period-law layout) do not
depend on it, so every seed gives the same inputs today; only restarts
beyond the third draw seeded perturbations.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import mspl

ALPHA, BETA = 0.5, 1.0
PERIOD_S = (0.3, 0.5, 0.8)
CHILD_TIMEOUT_S = 120.0


# Fills the calibration cache for the workloads' weights and nothing else:
# without a bracket constant `optimize_sharp` calibrates, and with
# `refine=False` it then only scores the cheap graded candidates.
CALIBRATE = (
    f"mspl.optimize_sharp(1e-2, mspl.WeightParams({ALPHA!r}, {BETA!r}), "
    "mspl.SharpOptions(refine=False))\n"
)


@dataclass(frozen=True)
class Sizes:
    eps_sweep: tuple[float, ...]
    diffuse_eps: float
    mesh_n: int
    diffuse_kwargs: dict
    cli_eps: str
    setup_samples: int


FULL = Sizes(
    eps_sweep=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5),
    diffuse_eps=1e-4,
    mesh_n=8192,
    diffuse_kwargs={},
    cli_eps="1e-3",
    setup_samples=5,
)
# Self-test sizes: the same code paths in a few seconds.
TOY = Sizes(
    eps_sweep=(1e-2, 3e-3, 1e-3),
    diffuse_eps=1e-4,
    mesh_n=4096,
    diffuse_kwargs={"max_iter": 200},
    cli_eps="1e-2",
    setup_samples=1,
)


@dataclass
class Outcome:
    seconds: float
    energy_scaled: float = 0.0
    solves: int = 0
    unconverged: int = 0
    ops: int = 1
    failures: dict[str, list[str]] = field(default_factory=dict)
    peak_rss_mb: float | None = None
    child_warnings: int = 0
    detail: dict = field(default_factory=dict)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    @property
    def failed_ops(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Child:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    max_rss_mb: float


def spawn(argv: list[str], env: dict, cwd: str) -> Child:
    """Run one child process to completion; wall time from launch to
    reaping, plus its own peak resident memory (from wait4)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
            env=env, cwd=cwd,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(
        seconds=seconds,
        returncode=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=stderr,
        max_rss_mb=usage.ru_maxrss / 1024.0,
    )


def scaled(total: float, eps: float) -> float:
    return total / eps ** (2.0 / 3.0)


def parts_sum(surface: float, well: float, bulk: float, total: float, rtol: float) -> bool:
    return abs(surface + well + bulk - total) <= rtol * max(abs(total), 1e-300)


class Workload:
    name = ""
    # module the cold-start import probe loads
    import_target = "mspl"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, env: dict):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.w = mspl.WeightParams(ALPHA, BETA)

    def setup_code(self) -> str:
        """Python source a cold interpreter runs as one set-up sample."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Fill this process's caches the same way the set-up sample does."""
        exec(self.setup_code(), {})

    def run(self) -> Outcome:
        raise NotImplementedError

    def run_inprocess(self) -> Outcome:
        """The operation run inside this process, for the traced run."""
        return self.run()

    def kernel_probe(self) -> float | None:
        return None


class SharpSweep(Workload):
    name = "sharp-sweep"

    def setup_code(self) -> str:
        # the sweep's first solve calibrates the jump-count bracket
        return "import mspl\n" + CALIBRATE

    def run(self) -> Outcome:
        cfg = mspl.ExperimentConfig(weights=self.w, eps_list=self.sizes.eps_sweep)
        out_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            t0 = time.perf_counter()
            report = mspl.sweep_scaling(cfg)
            written = mspl.emit_sweep(report, out_dir)
            seconds = time.perf_counter() - t0
            rows = report.rows
            out = Outcome(
                seconds=seconds,
                energy_scaled=sum(scaled(r["energy_total"], r["eps"]) for r in rows)
                / len(rows),
                solves=len(rows),
                unconverged=len(report.flagged),
            )
            self._check(report, written, out)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def _check(self, report, written, out: Outcome) -> None:
        op = self.name
        slope = report.fits["sharp"].slope
        out.detail["slope"] = slope
        if not 0.61 <= slope <= 0.72:
            out.fail(op, f"fitted slope {slope:.4f} outside [0.61, 0.72]")
        if report.flagged:
            out.fail(op, f"flagged rows: {report.flagged}")
        for r in report.rows:
            if r["energy_total"] < 0.0:
                out.fail(op, f"eps={r['eps']:g}: negative energy")
            if not parts_sum(
                r["energy_surface"], r["energy_well"], r["energy_bulk"],
                r["energy_total"], 1e-12,
            ):
                out.fail(op, f"eps={r['eps']:g}: energy parts do not sum to total")
            u1 = abs(r["result"].profile.boundary_value)
            if u1 > 1e-12:
                out.fail(op, f"eps={r['eps']:g}: profile not closed, |u(1)|={u1:.3e}")
        emitted = [p for p in written if p.endswith(".json")]
        if not emitted:
            out.fail(op, "emit_sweep wrote no JSON file")
        for path in emitted:
            with open(path) as fh:
                for r in json.load(fh)["rows"]:
                    if not parts_sum(
                        r["energy_surface"], r["energy_well"], r["energy_bulk"],
                        r["energy_total"], 1e-10,
                    ):
                        out.fail(op, f"{os.path.basename(path)} eps={r['eps']:g}: parts do not sum")


class DiffusePeriod(Workload):
    name = "diffuse-period"

    def _mesh(self):
        return mspl.GradedMesh(self.sizes.mesh_n, 2.0)

    def setup_code(self) -> str:
        # the first restart calibrates the bracket and builds the mesh operators
        return (
            "import mspl\n"
            f"mspl.smoothed_graded_init({self.sizes.diffuse_eps!r}, "
            f"mspl.WeightParams({ALPHA!r}, {BETA!r}), "
            f"mspl.GradedMesh({self.sizes.mesh_n!r}, 2.0))\n"
        )

    def run(self) -> Outcome:
        eps = self.sizes.diffuse_eps
        t0 = time.perf_counter()
        best, rows = mspl.minimize_with_restarts(
            eps, self.w, self._mesh(), restarts=3, seed=self.seed,
            **self.sizes.diffuse_kwargs,
        )
        ests = [mspl.extract_period(best.field, s, eps=eps, weights=self.w) for s in PERIOD_S]
        seconds = time.perf_counter() - t0
        out = Outcome(
            seconds=seconds,
            energy_scaled=scaled(best.energy.total, eps),
            solves=1,
            unconverged=0 if best.converged else 1,
        )
        op = self.name
        ratios = [e.ratio for e in ests]
        out.detail["ratios"] = ratios
        for s, r in zip(PERIOD_S, ratios):
            if not 0.75 <= r <= 1.35:
                out.fail(op, f"period ratio {r:.4f} at s={s} outside [0.75, 1.35]")
        slope = mspl.fit_scaling([e.s for e in ests], [e.h_emp for e in ests]).slope
        out.detail["slope"] = slope
        if abs(slope - 5.0 / 12.0) > 0.1:
            out.fail(op, f"period slope {slope:.4f} not within 0.1 of 5/12")
        if any(b > a for a, b in zip(best.trace, best.trace[1:])):
            out.fail(op, "descent trace increases")
        if best.energy.total < 0.0 or any(r["final_total"] < 0.0 for r in rows):
            out.fail(op, "negative energy")
        return out

    def kernel_probe(self) -> float:
        """Median microseconds of one `gradient_diffuse` on the workload's
        mesh and its graded initial field."""
        eps = self.sizes.diffuse_eps
        field_ = mspl.smoothed_graded_init(eps, self.w, self._mesh())
        times = []
        for _ in range(201):
            t0 = time.perf_counter()
            mspl.gradient_diffuse(field_, eps, self.w)
            times.append(time.perf_counter() - t0)
        return median(times) * 1e6


class CliCold(Workload):
    name = "cli-cold"
    import_target = "mspl.cli"

    def commands(self) -> list[tuple[str, list[str]]]:
        return [
            ("cell", ["cell", "--s", "0.5"]),
            ("preset", ["preset", "spherical-ok"]),
            (
                "sharp-min",
                ["sharp-min", "--alpha", str(ALPHA), "--beta", str(BETA),
                 "--eps", self.sizes.cli_eps, "--out", self.workdir],
            ),
        ]

    def setup_code(self) -> str:
        # sharp-min's solve calibrates the bracket for its weights
        return "import mspl.cli, mspl\n" + CALIBRATE

    def _check(self, label: str, rc: int, stdout: str, out: Outcome) -> None:
        op = f"{self.name}:{label}"
        if rc != 0:
            out.fail(op, f"exit code {rc}")
            return
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            out.fail(op, f"stdout is not JSON: {exc}")
            return
        if label == "cell":
            num, closed = payload["period_numeric"], payload["period_closed_form"]
            if abs(num - closed) > 1e-8 * abs(closed):
                out.fail(op, f"period_numeric {num} != period_closed_form {closed}")
        elif label == "sharp-min":
            e = payload["energy"]
            if not parts_sum(e["surface"], e["well"], e["bulk"], e["total"], 1e-10):
                out.fail(op, "energy parts do not sum to total")
            out.energy_scaled = scaled(e["total"], float(self.sizes.cli_eps))
            out.unconverged = 0 if payload["converged"] else 1

    def run(self) -> Outcome:
        out = Outcome(seconds=0.0, solves=1, unconverged=1, ops=0)
        rss = []
        for label, argv in self.commands():
            child = spawn([sys.executable, "-m", "mspl.cli", *argv], self.env, self.workdir)
            out.ops += 1
            out.seconds += child.seconds
            out.child_warnings += child.stderr.count("RuntimeWarning")
            out.detail[f"{label}_s"] = child.seconds
            rss.append(child.max_rss_mb)
            self._check(label, child.returncode, child.stdout, out)
        out.peak_rss_mb = max(rss)
        return out

    def run_inprocess(self) -> Outcome:
        import mspl.cli

        out = Outcome(seconds=0.0, solves=1, unconverged=1, ops=0)
        for label, argv in self.commands():
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = mspl.cli.main(argv)
            dt = time.perf_counter() - t0
            out.ops += 1
            out.seconds += dt
            out.detail[f"{label}_main_s"] = dt
            self._check(label, rc, buf.getvalue(), out)
        return out


WORKLOADS = {cls.name: cls for cls in (SharpSweep, DiffusePeriod, CliCold)}
