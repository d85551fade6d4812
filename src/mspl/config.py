"""Experiment configuration: a JSON-serializable bundle of everything a
run needs, with presets for the standard weight regimes."""

import json
from dataclasses import asdict, dataclass, field

from .core import WeightParams
from .errors import InvalidConfig, UnknownPreset

_MODELS = ("sharp", "diffuse", "both")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class MeshSpec:
    n: int = 4096
    q: float = 2.0


@dataclass(frozen=True)
class OptimizerSpec:
    tol: float | None = None
    max_iter: int = 4000
    restarts: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    weights: WeightParams = field(default_factory=lambda: WeightParams(0.0, 0.0))
    eps_list: tuple[float, ...] = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    model: str = "sharp"
    mesh: MeshSpec = field(default_factory=MeshSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    gamma: float | None = None
    n_jumps: int | None = None
    seed: int = 0
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    plot: bool = False

    def __post_init__(self):
        if self.model not in _MODELS:
            raise InvalidConfig(f"model must be one of {_MODELS}, got {self.model!r}")
        if not self.eps_list:
            raise InvalidConfig("eps_list must be nonempty")
        if any(not e > 0.0 for e in self.eps_list):
            raise InvalidConfig("every eps must be positive")
        if len(set(self.eps_list)) != len(self.eps_list):
            raise InvalidConfig("eps_list has duplicates")
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise InvalidConfig(f"unknown output format {fmt!r}")
        if self.optimizer.restarts < 1:
            raise InvalidConfig("need at least one restart")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["weights"] = {"alpha": self.weights.alpha, "beta": self.weights.beta}
        d["eps_list"] = list(self.eps_list)
        d["formats"] = list(self.formats)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        try:
            if "weights" in d:
                d["weights"] = WeightParams(**d["weights"])
            if "mesh" in d:
                d["mesh"] = MeshSpec(**d["mesh"])
            if "optimizer" in d:
                d["optimizer"] = OptimizerSpec(**d["optimizer"])
            if "eps_list" in d:
                d["eps_list"] = tuple(d["eps_list"])
            if "formats" in d:
                d["formats"] = tuple(d["formats"])
            return cls(**d)
        except TypeError as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot load config {path}: {exc}") from exc


PRESETS = {
    # constant weights: uniform-pattern regime
    "muller": ExperimentConfig(weights=WeightParams(0.0, 0.0)),
    # alpha=1/2, beta=1: all structural hypotheses hold, patterns grade
    "spherical-ok": ExperimentConfig(weights=WeightParams(0.5, 1.0)),
    # template meant to be dumped, edited, and re-loaded
    "custom": ExperimentConfig(),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
