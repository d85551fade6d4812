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

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .asymptotics import extract_period, predicted_period
from .config import ExperimentConfig
from .core import validate_weights
from .diffuse import GradedMesh, minimize_with_restarts
from .errors import (
    InsufficientData,
    InvalidConfig,
    InvalidSample,
    NonPositiveValue,
    TooFewOscillations,
)
from .sharp import SharpOptions, cumulative_energy, distribution_threshold, optimize_sharp

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


def fit_scaling(pairs, ys=None) -> ScalingFit:
    """Least-squares power-law fit on log-log data.

    Accepts either a sequence of (x, y) pairs or two parallel arrays.
    """
    if ys is None:
        arr = np.asarray(list(pairs), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InsufficientData("need (x, y) pairs")
        xs, ys = arr[:, 0], arr[:, 1]
    else:
        xs = np.asarray(pairs, dtype=float)
        ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InsufficientData("need matching 1-d arrays")
    if xs.size < 3:
        raise InsufficientData(f"need at least 3 points, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise NonPositiveValue("log-log fit needs positive values")
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


def sharp_options(cfg: ExperimentConfig) -> SharpOptions:
    """Options of every sharp solve a configuration runs: its grading,
    its jump count if one is fixed, and its iteration budget."""
    return SharpOptions(
        gamma=cfg.gamma, n_jumps=cfg.n_jumps, max_iter=cfg.optimizer.max_iter
    )


def diffuse_minimum(eps: float, cfg: ExperimentConfig):
    """`minimize_with_restarts` at eps on the configuration's mesh, with
    its restarts, seed, tolerance, budget and grading.  Returns (best
    DiffuseMinimum, diagnostics rows)."""
    return minimize_with_restarts(
        eps,
        cfg.weights,
        GradedMesh(cfg.mesh.n, cfg.mesh.q),
        restarts=cfg.optimizer.restarts,
        seed=cfg.seed,
        tol=cfg.optimizer.tol,
        max_iter=cfg.optimizer.max_iter,
        gamma=cfg.gamma,
    )


def _sharp_point(eps: float, cfg: ExperimentConfig):
    res = optimize_sharp(eps, cfg.weights, sharp_options(cfg))
    return {
        "eps": eps,
        "model": "sharp",
        **{f"energy_{k}": v for k, v in res.energy.as_dict().items()},
        "n_jumps": res.profile.n_jumps,
        "converged": res.converged,
        "status": "converged" if res.converged else "max_iter",
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
        "restart_diagnostics": diag,
    }


def _models(cfg: ExperimentConfig) -> list[str]:
    return ["sharp", "diffuse"] if cfg.model == "both" else [cfg.model]


def sweep_scaling(cfg: ExperimentConfig) -> SweepReport:
    """Minimize at every eps (per model), fit the energy scaling, and
    attach a running slope column (fit over the rows so far, per model)."""
    rows = [
        _sharp_point(eps, cfg) if model == "sharp" else _diffuse_point(eps, cfg)
        for eps in cfg.eps_list
        for model in _models(cfg)
    ]
    rows.sort(key=lambda r: (r["eps"], r["model"]))

    fits: dict[str, ScalingFit] = {}
    for model in _models(cfg):
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


def run_distribution_report(cfg: ExperimentConfig, n_samples: int = 48) -> DistributionReport:
    """Cumulative-energy profile of the sharp minimizer at the first eps:
    phi(x)/(x eps^(2/3)) should be flat above the trust threshold."""
    eps = cfg.eps_list[0]
    w = cfg.weights
    warnings = []
    validity = validate_weights(w)
    if not validity.distribution_ok:
        warnings.extend(validity.reasons)
    res = optimize_sharp(eps, w, sharp_options(cfg))
    threshold = distribution_threshold(eps, w.beta)
    xs = np.geomspace(max(threshold / 10.0, 1e-6), 1.0, n_samples)
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
    for the configured model(s), at the smallest eps of the sweep."""
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
    eps = min(cfg.eps_list)
    warnings = []
    rows_by_model: dict[str, list[dict]] = {}
    fits: dict[str, ScalingFit | None] = {}
    for model in _models(cfg):
        if model == "sharp":
            minimizer = optimize_sharp(eps, w, sharp_options(cfg)).profile
        else:
            minimizer = diffuse_minimum(eps, cfg)[0].field
        rows = []
        for s in sorted(s_arr):
            try:
                est = extract_period(minimizer, s, eps=eps, weights=w)
                rows.append(
                    {
                        "s": s,
                        "h_emp": est.h_emp,
                        "h_pred": est.h_pred,
                        "ratio": est.ratio,
                        "n_teeth": est.n_teeth,
                    }
                )
            except TooFewOscillations as exc:
                warnings.append(f"{model} s={s:g}: {exc}")
                rows.append(
                    {
                        "s": s,
                        "h_emp": math.nan,
                        "h_pred": predicted_period(s, eps, w),
                        "ratio": math.nan,
                        "n_teeth": 0,
                    }
                )
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
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def round12(obj):
    """Round every float to 12 significant digits (recursively) so CSV
    and JSON renderings carry identical numbers."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if not math.isfinite(f) else float(f"{f:.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_fmt(r[col]) for col in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        raise TypeError(f"not serializable: {type(o)!r}")

    with open(path, "w") as fh:
        json.dump(round12(payload), fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _public_row(r: dict, header: list[str]) -> dict:
    return {k: r[k] for k in header}


def _fit_dict(fit: ScalingFit | None):
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }


def emit_sweep(report: SweepReport, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    cfg = report.config
    written = []
    rows = [
        {**_public_row(r, SWEEP_HEADER)}
        for r in report.rows
    ]
    if "csv" in cfg.formats:
        path = os.path.join(out_dir, "sweep_scaling.csv")
        write_csv(path, SWEEP_HEADER, rows)
        written.append(path)
    if "json" in cfg.formats:
        path = os.path.join(out_dir, "sweep_scaling.json")
        write_json(
            path,
            {
                "kind": "sweep-scaling",
                "params": cfg.to_dict(),
                "rows": rows,
                "fits": {m: _fit_dict(f) for m, f in report.fits.items()},
                "flagged": report.flagged,
            },
        )
        written.append(path)
    if cfg.plot:
        from .svgplot import loglog_sweep_plot

        path = os.path.join(out_dir, "sweep_scaling.svg")
        loglog_sweep_plot(path, report)
        written.append(path)
    return written


def emit_distribution(report: DistributionReport, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    cfg = report.config
    written = []
    rows = [_public_row(r, PROFILE_HEADER) for r in report.rows]
    if "csv" in cfg.formats:
        path = os.path.join(out_dir, "energy_profile.csv")
        write_csv(path, PROFILE_HEADER, rows)
        written.append(path)
    if "json" in cfg.formats:
        path = os.path.join(out_dir, "energy_profile.json")
        write_json(
            path,
            {
                "kind": "energy-profile",
                "params": cfg.to_dict(),
                "eps": report.eps,
                "threshold": report.threshold,
                "spread": report.spread,
                "rows": rows,
                "warnings": report.warnings,
            },
        )
        written.append(path)
    if cfg.plot:
        from .svgplot import ratio_plot

        path = os.path.join(out_dir, "energy_profile.svg")
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
        written.append(path)
    return written


def emit_period(report: PeriodReport, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    cfg = report.config
    written = []
    for model, rows in report.rows_by_model.items():
        pub = [_public_row(r, PERIOD_HEADER) for r in rows]
        if "csv" in cfg.formats:
            path = os.path.join(out_dir, f"period_check_{model}.csv")
            write_csv(path, PERIOD_HEADER, pub)
            written.append(path)
        if "json" in cfg.formats:
            path = os.path.join(out_dir, f"period_check_{model}.json")
            write_json(
                path,
                {
                    "kind": "period-check",
                    "model": model,
                    "params": cfg.to_dict(),
                    "eps": report.eps,
                    "rows": pub,
                    "fit": _fit_dict(report.fits.get(model)),
                    "warnings": report.warnings,
                },
            )
            written.append(path)
        if cfg.plot:
            from .svgplot import ratio_plot

            path = os.path.join(out_dir, f"period_check_{model}.svg")
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
            written.append(path)
    return written
