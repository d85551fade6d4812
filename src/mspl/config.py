"""Experiment configuration: a JSON-serializable bundle of everything a
run needs, with presets for the standard weight regimes."""

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from .errors import InvalidConfig, UnknownPreset, check_integer, check_real
from .weights import WeightParams

_MODELS = ("sharp", "diffuse", "both")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class GradedMesh:
    """Nodes t_i = (i/n)**q, i = 0..n, clustering toward t = 0 (q = 1 is
    uniform).  n must be an integer >= 16, q a finite number >= 1 (kept as
    given), and the first cell, (1/n)**q, must not underflow to 0; else
    InvalidConfig.  Meshes compare and hash by (n, q)."""

    n: int = 4096
    q: float = 2.0

    def __post_init__(self):
        check_integer("mesh n", self.n)
        # a numpy integer is kept as the int it equals, which JSON can write
        object.__setattr__(self, "n", int(self.n))
        if self.n < 16:
            raise InvalidConfig(f"mesh needs at least 16 cells, got {self.n}")
        check_real("grading exponent", self.q)
        if not 1.0 <= self.q < math.inf:
            raise InvalidConfig(f"grading exponent must be finite and >= 1, got {self.q!r}")
        if not (1 / self.n) ** self.q > 0.0:
            raise InvalidConfig(f"first cell of {self!r} underflows to 0")

    @property
    def nodes(self):
        return _mesh_nodes(self.n, self.q)

    @property
    def spacings(self):
        return self.nodes[1:] - self.nodes[:-1]


@lru_cache(maxsize=64)
def _mesh_nodes(n: int, q: float):
    # imported here so a configuration is built and checked without numpy
    import numpy as np

    t = (np.arange(n + 1) / n) ** q
    t[0], t[-1] = 0.0, 1.0
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class ExperimentConfig:
    weights: WeightParams = field(default_factory=lambda: WeightParams(0.0, 0.0))
    eps_list: tuple[float, ...] = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    model: str = "sharp"
    mesh: GradedMesh = field(default_factory=GradedMesh)
    # Newton step budget of every sharp and diffuse descent
    max_iter: int = 500
    n_jumps: int | None = None
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    plot: bool = False

    def __post_init__(self):
        if self.model not in _MODELS:
            raise InvalidConfig(f"model must be one of {_MODELS}, got {self.model!r}")
        if not self.eps_list:
            raise InvalidConfig("eps_list must be nonempty")
        for e in self.eps_list:
            check_real("eps", e)
            if not 0.0 < e < math.inf:
                raise InvalidConfig("every eps must be positive and finite")
        if len(set(self.eps_list)) != len(self.eps_list):
            raise InvalidConfig("eps_list has duplicates")
        check_integer("max_iter", self.max_iter)
        if self.max_iter < 0:
            raise InvalidConfig(f"max_iter must be nonnegative, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.n_jumps is not None:
            check_integer("n_jumps", self.n_jumps)
            object.__setattr__(self, "n_jumps", int(self.n_jumps))
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise InvalidConfig(f"unknown output format {fmt!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise InvalidConfig(f"out_dir must be a nonempty string, got {self.out_dir!r}")
        if not isinstance(self.plot, bool):
            raise InvalidConfig(f"plot must be true or false, got {self.plot!r}")

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
                d["mesh"] = GradedMesh(**d["mesh"])
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
