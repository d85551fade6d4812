"""Command-line front end.

Subcommands: sharp-min, diffuse-min, sweep-scaling, energy-profile,
period-check, cell, preset.  Exit codes: 0 ok, 2 bad configuration,
3 a solve of sharp-min, diffuse-min or sweep-scaling did not converge
(outputs are still written); energy-profile and period-check exit 0.
"""

import argparse
import json
import os
import sys

# numpy and the solver modules are imported by the handlers that run
# them, so `cell` and `preset` start without loading either
from .cell import (
    A0_constant,
    CellDensityParams,
    minimize_cell,
    optimal_period,
    period_law_constant,
)
from .config import ExperimentConfig, preset
from .errors import InvalidConfig, LabError
from .rounding import round12, write_json
from .weights import WeightParams


def _add_common(p: argparse.ArgumentParser, *, eps_list=False, diffuse=True, emit=True):
    """The flags of a solving subcommand: the diffuse mesh only where a
    diffuse model runs, --format/--plot only where a report is emitted."""
    p.set_defaults(mesh_n=None, grading_q=None, format=None, plot=None)
    p.add_argument("--config", help="JSON config file to start from")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    if eps_list:
        p.add_argument("--eps-list", default=None, help="comma-separated eps values")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n-jumps", type=int, default=None)
    if diffuse:
        p.add_argument("--mesh-n", type=int, default=None)
        p.add_argument("--grading-q", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    if emit:
        p.add_argument("--format", choices=["csv", "json", "both"], default=None)
        p.add_argument("--plot", action="store_true", default=None)


def _build_config(args, model=None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    d = cfg.to_dict()
    if model is not None:
        d["model"] = model
    if d["model"] == "sharp":
        # the mesh flags set only the diffuse solver
        for flag in ("mesh_n", "grading_q"):
            if getattr(args, flag) is not None:
                raise InvalidConfig(
                    f"--{flag.replace('_', '-')} sets the diffuse model, "
                    "which --model sharp does not run"
                )
    if args.alpha is not None or args.beta is not None:
        d["weights"] = {
            "alpha": args.alpha if args.alpha is not None else cfg.weights.alpha,
            "beta": args.beta if args.beta is not None else cfg.weights.beta,
        }
    if getattr(args, "eps_list", None) is not None and args.eps is not None:
        raise InvalidConfig("--eps and --eps-list both set the eps values; give one")
    # a flag given empty is given: it leaves no eps, which is refused
    if getattr(args, "eps_list", None) is not None:
        try:
            d["eps_list"] = [
                float(tok) for tok in args.eps_list.split(",") if tok.strip()
            ]
        except ValueError as exc:
            raise InvalidConfig(f"bad --eps-list: {exc}") from None
    if args.eps is not None:
        d["eps_list"] = [args.eps]
    if args.n_jumps is not None:
        d["n_jumps"] = args.n_jumps
    if args.mesh_n is not None or args.grading_q is not None:
        d["mesh"] = {
            "n": args.mesh_n if args.mesh_n is not None else cfg.mesh.n,
            "q": args.grading_q if args.grading_q is not None else cfg.mesh.q,
        }
    if args.max_iter is not None:
        d["max_iter"] = args.max_iter
    if args.out is not None:
        d["out_dir"] = args.out
    if args.format is not None:
        d["formats"] = ["csv", "json"] if args.format == "both" else [args.format]
    if args.plot:
        d["plot"] = True
    return ExperimentConfig.from_dict(d)


def _emit_json(payload) -> None:
    print(json.dumps(round12(payload), indent=2, sort_keys=True))


def _cmd_sharp_min(args) -> int:
    from .sharp import optimize_sharp, sharp_options

    cfg = _build_config(args, model="sharp")
    eps = cfg.eps_list[0]
    res = optimize_sharp(eps, cfg.weights, sharp_options(cfg))
    payload = {
        "eps": eps,
        "alpha": cfg.weights.alpha,
        "beta": cfg.weights.beta,
        "energy": res.energy.as_dict(),
        "n_jumps": res.profile.n_jumps,
        "jumps": list(res.profile.jumps),
        "converged": res.converged,
    }
    _emit_json(payload)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json(os.path.join(cfg.out_dir, "sharp_min.json"), payload)
    return 0 if res.converged else 3


def _cmd_diffuse_min(args) -> int:
    from .reports import diffuse_minimum

    cfg = _build_config(args, model="diffuse")
    eps = cfg.eps_list[0]
    res, diag = diffuse_minimum(eps, cfg)
    payload = {
        "eps": eps,
        "alpha": cfg.weights.alpha,
        "beta": cfg.weights.beta,
        "mesh": {"n": cfg.mesh.n, "q": cfg.mesh.q},
        "energy": res.energy.as_dict(),
        "n_teeth": res.field.slope_reversals().size,
        "status": res.status,
        "iterations": res.iterations,
        "counts": diag,
    }
    _emit_json(payload)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json(
        os.path.join(cfg.out_dir, "diffuse_min.json"),
        {**payload, "values": list(res.field.values)},
    )
    return 0 if res.converged else 3


def _cmd_sweep(args) -> int:
    from .reports import emit_sweep, sweep_scaling

    cfg = _build_config(args, model=args.model)
    report = sweep_scaling(cfg)
    written = emit_sweep(report, cfg.out_dir)
    summary = {
        "fits": {
            m: {"slope": f.slope, "r_squared": f.r_squared}
            for m, f in report.fits.items()
        },
        "written": written,
        "flagged": report.flagged,
    }
    _emit_json(summary)
    return 3 if report.flagged else 0


def _cmd_profile(args) -> int:
    from .reports import emit_distribution, run_distribution_report

    cfg = _build_config(args, model="sharp")
    report = run_distribution_report(cfg)
    written = emit_distribution(report, cfg.out_dir)
    _emit_json(
        {
            "eps": report.eps,
            "threshold": report.threshold,
            "spread": report.spread,
            "warnings": report.warnings,
            "written": written,
        }
    )
    return 0


def _cmd_period(args) -> int:
    from .reports import emit_period, run_period_report

    cfg = _build_config(args, model=args.model)
    try:
        s_list = [float(tok) for tok in args.s_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --s-list: {exc}") from None
    report = run_period_report(cfg, s_list)
    written = emit_period(report, cfg.out_dir)
    _emit_json(
        {
            "eps": report.eps,
            "fits": {
                m: (None if f is None else {"slope": f.slope, "r_squared": f.r_squared})
                for m, f in report.fits.items()
            },
            "rows": {m: rows for m, rows in report.rows_by_model.items()},
            "warnings": report.warnings,
            "written": written,
        }
    )
    return 0


def _cmd_cell(args) -> int:
    w = WeightParams(args.alpha or 0.0, args.beta or 0.0)
    params = CellDensityParams.from_location(args.s, w)
    res = minimize_cell(params)
    _emit_json(
        {
            "s": args.s,
            "a_s": params.a_s,
            "b_s": params.b_s,
            "A0": A0_constant(),
            "L": period_law_constant(),
            "period_numeric": res.period,
            "period_closed_form": optimal_period(params),
            "density_min": res.density,
        }
    )
    return 0


def _cmd_preset(args) -> int:
    print(preset(args.name).to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mspl",
        description="minimize and probe weighted singularly perturbed 1-d pattern energies",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sharp-min", help="minimize the sharp sawtooth energy at one eps")
    _add_common(p, diffuse=False, emit=False)
    p.set_defaults(fn=_cmd_sharp_min)

    p = sub.add_parser("diffuse-min", help="minimize the diffuse energy at one eps")
    _add_common(p, emit=False)
    p.set_defaults(fn=_cmd_diffuse_min)

    p = sub.add_parser("sweep-scaling", help="energy-vs-eps sweep with power-law fit")
    _add_common(p, eps_list=True)
    p.add_argument("--model", choices=["sharp", "diffuse", "both"], default="sharp")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("energy-profile", help="cumulative energy distribution check")
    _add_common(p, diffuse=False)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("period-check", help="empirical vs predicted local period")
    _add_common(p)
    p.add_argument("--model", choices=["sharp", "diffuse", "both"], default="diffuse")
    p.add_argument("--s-list", default="0.3,0.5,0.8", help="comma-separated interior locations")
    p.set_defaults(fn=_cmd_period)

    p = sub.add_parser("cell", help="cell-problem density and optimal period at s")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(fn=_cmd_cell)

    p = sub.add_parser("preset", help="print a preset config as JSON")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_preset)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
