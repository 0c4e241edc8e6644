"""Application registry: construct any evaluated workload by name.

``APPLICATIONS`` holds the eight resilience-study applications
(Table II); ``FLAT_APPLICATIONS`` holds the two counter-examples whose
flat access profiles (Figure 3(g)-(h)) exclude them from the study.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError, UnknownAppError
from repro.kernels.atax import Atax
from repro.kernels.base import GpuApplication
from repro.kernels.bicg import Bicg
from repro.kernels.blackscholes import BlackScholes
from repro.kernels.cnn import Cnn
from repro.kernels.gesummv import Gesummv
from repro.kernels.gramschmidt import GramSchmidt
from repro.kernels.laplacian import Laplacian
from repro.kernels.meanfilter import Meanfilter
from repro.kernels.mvt import Mvt
from repro.kernels.sobel import Sobel
from repro.kernels.srad import Srad

#: The applications of the resilience study (paper Table II order).
APPLICATIONS: dict[str, Callable[..., GpuApplication]] = {
    "C-NN": Cnn,
    "P-BICG": Bicg,
    "P-GESUMMV": Gesummv,
    "P-MVT": Mvt,
    "A-Laplacian": Laplacian,
    "A-Meanfilter": Meanfilter,
    "A-Sobel": Sobel,
    "A-SRAD": Srad,
}

#: Applications with flat access profiles (no hot blocks), Figure 3(g)-(h).
FLAT_APPLICATIONS: dict[str, Callable[..., GpuApplication]] = {
    "C-BlackScholes": BlackScholes,
    "P-GRAMSCHM": GramSchmidt,
}

#: Extension workloads beyond the paper's evaluated set, included to
#: demonstrate that the framework generalizes.
EXTENDED_APPLICATIONS: dict[str, Callable[..., GpuApplication]] = {
    "P-ATAX": Atax,
}

#: Every registered application, by name.
ALL_APPLICATIONS: dict[str, Callable[..., GpuApplication]] = {
    **APPLICATIONS, **FLAT_APPLICATIONS, **EXTENDED_APPLICATIONS}

_SMALL_OVERRIDES: dict[str, dict] = {
    "C-NN": {"batch": 8},
    "P-BICG": {"nx": 96, "ny": 96},
    "P-GESUMMV": {"n": 96},
    "P-MVT": {"n": 96},
    "A-Laplacian": {"height": 48, "width": 48},
    "A-Meanfilter": {"height": 48, "width": 48},
    "A-Sobel": {"height": 48, "width": 48},
    "A-SRAD": {"rows": 48, "cols": 48},
    "C-BlackScholes": {"n_options": 1024},
    "P-GRAMSCHM": {"n": 48},
    "P-ATAX": {"n": 96},
}


def app_factory(name: str) -> Callable[..., GpuApplication]:
    """The registered constructor of ``name``; raises
    :class:`~repro.errors.UnknownAppError` for any other name."""
    factory = ALL_APPLICATIONS.get(name)
    if factory is None:
        known = (sorted(APPLICATIONS) + sorted(FLAT_APPLICATIONS)
                 + sorted(EXTENDED_APPLICATIONS))
        raise UnknownAppError(name, known)
    return factory


def create_app(
    name: str, scale: str = "default", seed: int = 1234, **kwargs
) -> GpuApplication:
    """Instantiate an application by its paper name.

    ``scale`` is ``"default"`` (the sizes documented in DESIGN.md) or
    ``"small"`` (fast sizes for tests and smoke runs).  Explicit
    ``kwargs`` override either.
    """
    factory = app_factory(name)
    if scale == "default":
        params: dict = {}
    elif scale == "small":
        params = dict(_SMALL_OVERRIDES[name])
    else:
        raise ConfigError(f"unknown scale {scale!r} (default|small)")
    params.update(kwargs)
    return factory(seed=seed, **params)


def resilience_apps(scale: str = "default", seed: int = 1234) \
        -> list[GpuApplication]:
    """All eight resilience-study applications, constructed."""
    return [create_app(name, scale=scale, seed=seed) for name in APPLICATIONS]
