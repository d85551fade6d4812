"""Experiment drivers and deterministic result emission.

Each driver returns a report object (rows + fits + warnings) and `emit`
renders it to CSV/JSON (and optionally SVG) with fixed schemas:

    sweep-scaling : eps,model,energy_total,energy_surface,energy_well,energy_bulk,n_jumps,slope_running
    energy-profile: x,phi,ratio,flag_below_threshold
    period-check  : s,h_emp,h_pred,ratio,n_teeth

Rows are sorted, floats are rounded to 12 significant digits in both
renderings, JSON keys are sorted, and nothing timestamped is written, so
re-running a configuration reproduces byte-identical files.
"""

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import extract_period, predicted_period
from .cell import sharp_period
from .config import ExperimentConfig
from .diffuse import minimize_with_restarts
from .errors import (
    InsufficientData,
    InvalidConfig,
    InvalidSample,
    NonPositiveValue,
    TooFewOscillations,
)
from .rounding import write_json
from .sharp import (
    SharpMinimum,
    cumulative_energy,
    distribution_threshold,
    optimize_sharp,
    optimize_sharp_sweep,
    sharp_options,
)

SWEEP_HEADER = [
    "eps",
    "model",
    "energy_total",
    "energy_surface",
    "energy_well",
    "energy_bulk",
    "n_jumps",
    "slope_running",
]
PROFILE_HEADER = ["x", "phi", "ratio", "flag_below_threshold"]
PERIOD_HEADER = ["s", "h_emp", "h_pred", "ratio", "n_teeth"]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law y ~ C * x**slope in log-log coordinates."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_scaling(xs, ys) -> ScalingFit:
    """Least-squares power-law fit of ys against xs, two parallel 1-d
    arrays, on log-log axes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InsufficientData("need matching 1-d arrays")
    if xs.size < 3:
        raise InsufficientData(f"need at least 3 points, got {xs.size}")
    if np.all(xs == xs[0]):
        raise InsufficientData("need at least 2 distinct abscissae")
    # nan fails every comparison, so it is refused with inf
    if not np.all((0.0 < xs) & (xs < np.inf) & (0.0 < ys) & (ys < np.inf)):
        raise NonPositiveValue("log-log fit needs positive finite values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_points=int(xs.size),
    )


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    rows: list[dict]
    fits: dict[str, ScalingFit]
    flagged: list[dict]
    config: ExperimentConfig


def diffuse_minimum(eps: float, cfg: ExperimentConfig):
    """`minimize_with_restarts` at eps on the configuration's mesh, with
    its pinned jump count and budget.  Returns (best DiffuseMinimum,
    diagnostics rows)."""
    return minimize_with_restarts(
        eps,
        cfg.weights,
        cfg.mesh,
        n_jumps=cfg.n_jumps,
        max_iter=cfg.max_iter,
    )


def _sharp_point(eps: float, res: SharpMinimum):
    return {
        "eps": eps,
        "model": "sharp",
        **{f"energy_{k}": v for k, v in res.energy.as_dict().items()},
        "n_jumps": res.profile.n_jumps,
        "converged": res.converged,
        # an unconverged winner need not have spent its budget: a collapsed
        # count scores its start layout, a backtrack can stall, and a winner
        # beside a count of no finite total is not bracketed
        "status": "converged" if res.converged else "unconverged",
        "result": res,
    }


def _diffuse_point(eps: float, cfg: ExperimentConfig):
    res, diag = diffuse_minimum(eps, cfg)
    return {
        "eps": eps,
        "model": "diffuse",
        **{f"energy_{k}": v for k, v in res.energy.as_dict().items()},
        "n_jumps": res.field.slope_reversals().size,
        "converged": res.converged,
        "status": res.status,
        "result": res,
        "counts": diag,
    }


def _models(cfg: ExperimentConfig) -> list[str]:
    return ["sharp", "diffuse"] if cfg.model == "both" else [cfg.model]


def sweep_scaling(cfg: ExperimentConfig) -> SweepReport:
    """Minimize at every eps (per model), fit the energy scaling, and
    attach a running slope column (fit over the rows so far, per model).

    The sharp rows come from one `optimize_sharp_sweep` call over the
    whole eps list, whose walks share their gap-kernel calls; each is
    the row `optimize_sharp` gives at its eps alone."""
    models = _models(cfg)
    sharp = (
        optimize_sharp_sweep(cfg.eps_list, cfg.weights, sharp_options(cfg))
        if "sharp" in models
        else ()
    )
    rows = [
        _sharp_point(eps, sharp[i]) if model == "sharp" else _diffuse_point(eps, cfg)
        for i, eps in enumerate(cfg.eps_list)
        for model in models
    ]
    rows.sort(key=lambda r: (r["eps"], r["model"]))

    fits: dict[str, ScalingFit] = {}
    for model in models:
        sub = [r for r in rows if r["model"] == model]
        seen_e, seen_t = [], []
        for r in sub:
            seen_e.append(r["eps"])
            seen_t.append(r["energy_total"])
            if len(seen_e) >= 2:
                slope = float(np.polyfit(np.log(seen_e), np.log(seen_t), 1)[0])
                r["slope_running"] = slope
            else:
                r["slope_running"] = math.nan
        if len(sub) >= 3:
            fits[model] = fit_scaling([r["eps"] for r in sub], [r["energy_total"] for r in sub])
    flagged = [
        {"eps": r["eps"], "model": r["model"], "status": r["status"]}
        for r in rows
        if not r["converged"]
    ]
    return SweepReport(rows=rows, fits=fits, flagged=flagged, config=cfg)


# ---------------------------------------------------------------------------
# energy distribution driver
# ---------------------------------------------------------------------------


@dataclass
class DistributionReport:
    rows: list[dict]
    eps: float
    threshold: float
    spread: float | None
    warnings: list[str]
    config: ExperimentConfig


def run_distribution_report(cfg: ExperimentConfig) -> DistributionReport:
    """Cumulative-energy profile of the sharp minimizer at the first eps:
    phi(x)/(x eps^(2/3)) should be flat above the trust threshold."""
    eps = cfg.eps_list[0]
    w = cfg.weights
    warnings = []
    if not w.distribution_ok:
        warnings.append(
            f"2*alpha={2 * w.alpha:g} < beta={w.beta:g}: energy "
            "distribution bound not guaranteed"
        )
    res = optimize_sharp(eps, w, sharp_options(cfg))
    threshold = distribution_threshold(eps, w.beta)
    xs = np.geomspace(max(threshold / 10.0, 1e-6), 1.0, 48)
    xs[-1] = 1.0
    prof = cumulative_energy(res.profile, eps, w, xs)
    ratios = prof.ratios()
    rows = []
    for x, phi, ratio in zip(prof.xs, prof.phis, ratios):
        rows.append(
            {
                "x": float(x),
                "phi": float(phi),
                "ratio": float(ratio),
                "flag_below_threshold": int(x < threshold),
            }
        )
    valid = [r["ratio"] for r in rows if not r["flag_below_threshold"]]
    spread = max(valid) / min(valid) if len(valid) >= 2 else None
    return DistributionReport(
        rows=rows,
        eps=eps,
        threshold=threshold,
        spread=spread,
        warnings=warnings,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# period-law driver
# ---------------------------------------------------------------------------


@dataclass
class PeriodReport:
    rows_by_model: dict[str, list[dict]]
    fits: dict[str, ScalingFit | None]
    eps: float
    warnings: list[str]
    config: ExperimentConfig


def run_period_report(cfg: ExperimentConfig, s_list) -> PeriodReport:
    """Empirical vs predicted oscillation period at interior locations,
    for the configured model(s), at the smallest eps of the sweep; each
    model's rows predict by its own law (`extract_period`)."""
    w = cfg.weights
    if not w.limit_ok:
        raise InvalidConfig(
            f"(alpha, beta)=({w.alpha:g}, {w.beta:g}) outside the period-law regime"
        )
    s_arr = [float(s) for s in s_list]
    if not s_arr:
        raise InvalidSample("need at least one location")
    for s in s_arr:
        if not 0.0 < s < 1.0:
            raise InvalidSample(f"location must be interior, got {s!r}")
    if len(set(s_arr)) != len(s_arr):
        raise InvalidSample("locations have duplicates")
    eps = min(cfg.eps_list)
    warnings = []
    rows_by_model: dict[str, list[dict]] = {}
    fits: dict[str, ScalingFit | None] = {}
    for model in _models(cfg):
        if model == "sharp":
            minimizer = optimize_sharp(eps, w, sharp_options(cfg)).profile
            law = sharp_period
        else:
            minimizer = diffuse_minimum(eps, cfg)[0].field
            law = predicted_period
        rows = []
        for s in sorted(s_arr):
            try:
                est = extract_period(minimizer, s, eps=eps, weights=w)
                row = (s, est.h_emp, est.h_pred, est.ratio, est.n_teeth)
            except TooFewOscillations as exc:
                warnings.append(f"{model} s={s:g}: {exc}")
                row = (s, math.nan, law(s, eps, w), math.nan, 0)
            rows.append(dict(zip(PERIOD_HEADER, row)))
        rows_by_model[model] = rows
        ok = [r for r in rows if math.isfinite(r["h_emp"])]
        fits[model] = (
            fit_scaling([r["s"] for r in ok], [r["h_emp"] for r in ok])
            if len(ok) >= 3
            else None
        )
    return PeriodReport(
        rows_by_model=rows_by_model,
        fits=fits,
        eps=eps,
        warnings=warnings,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool too, as 0/1
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_fmt(r[col]) for col in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(cfg, out_dir, stem, header, rows, payload, plot) -> list[str]:
    """Write `stem`.csv, `stem`.json and, with cfg.plot, `stem`.svg into
    out_dir as cfg asks; returns the paths written.  Both tables hold the
    header's columns of `rows`; the JSON adds `params` and `payload`.
    `plot(path)` draws the SVG, importing svgplot itself, so that no run
    without a plot loads it."""
    os.makedirs(out_dir, exist_ok=True)
    rows = [{k: r[k] for k in header} for r in rows]
    written = []
    if "csv" in cfg.formats:
        written.append(os.path.join(out_dir, f"{stem}.csv"))
        write_csv(written[-1], header, rows)
    if "json" in cfg.formats:
        written.append(os.path.join(out_dir, f"{stem}.json"))
        write_json(written[-1], {**payload, "params": cfg.to_dict(), "rows": rows})
    if cfg.plot:
        written.append(os.path.join(out_dir, f"{stem}.svg"))
        plot(written[-1])
    return written


def emit_sweep(report: SweepReport, out_dir: str) -> list[str]:
    def plot(path):
        from .svgplot import loglog_sweep_plot

        loglog_sweep_plot(path, report)

    payload = {
        "kind": "sweep-scaling",
        "fits": {m: asdict(f) for m, f in report.fits.items()},
        "flagged": report.flagged,
    }
    return _emit(
        report.config, out_dir, "sweep_scaling", SWEEP_HEADER, report.rows, payload, plot
    )


def emit_distribution(report: DistributionReport, out_dir: str) -> list[str]:
    def plot(path):
        from .svgplot import ratio_plot

        ratio_plot(
            path,
            [r["x"] for r in report.rows],
            [r["ratio"] for r in report.rows],
            marker_x=report.threshold,
            title="cumulative energy ratio",
            xlabel="x",
            ylabel="phi/(x eps^2/3)",
            logx=True,
        )

    payload = {
        "kind": "energy-profile",
        "eps": report.eps,
        "threshold": report.threshold,
        "spread": report.spread,
        "warnings": report.warnings,
    }
    return _emit(
        report.config, out_dir, "energy_profile", PROFILE_HEADER, report.rows, payload, plot
    )


def emit_period(report: PeriodReport, out_dir: str) -> list[str]:
    written = []
    for model, rows in report.rows_by_model.items():

        def plot(path):
            from .svgplot import ratio_plot

            finite = [r for r in rows if math.isfinite(r["ratio"])]
            ratio_plot(
                path,
                [r["s"] for r in finite],
                [r["ratio"] for r in finite],
                title=f"period ratio ({model})",
                xlabel="s",
                ylabel="h_emp/h_pred",
                logx=False,
            )

        fit = report.fits.get(model)
        payload = {
            "kind": "period-check",
            "model": model,
            "eps": report.eps,
            "fit": None if fit is None else asdict(fit),
            "warnings": report.warnings,
        }
        written += _emit(
            report.config, out_dir, f"period_check_{model}", PERIOD_HEADER, rows, payload, plot
        )
    return written
