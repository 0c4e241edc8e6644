"""Golden oracle of the kernel traces.

``trace_oracle.json`` pins, per application, one SHA-256 over every
kernel name, CTA id, warp id and instruction field of its
``build_trace`` output, in order:

* ``small`` — every registered application at small scale, C-NN at
  ``batch=2`` so that CTA and warp numbering across its image loop is
  pinned;
* ``default`` — every registered application at default scale.

The simulator oracle (``tests/sim/sim_oracle.json``) pins what the
simulator makes of a trace; this one pins the trace itself.  A change
that is meant to alter a trace must regenerate the fixture on purpose::

    PYTHONPATH=src python tests/kernels/test_trace_oracle.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.kernels.registry import ALL_APPLICATIONS, create_app
from repro.kernels.trace import Compute

FIXTURE = Path(__file__).with_name("trace_oracle.json")

SCALES = {
    "small": {app: {"batch": 2} if app == "C-NN" else {}
              for app in ALL_APPLICATIONS},
    "default": {app: {} for app in ALL_APPLICATIONS},
}


def trace_digest(app: str, scale: str) -> str:
    """SHA-256 over every field of ``app``'s trace at ``scale``."""
    application = create_app(app, scale=scale, **SCALES[scale][app])
    trace = application.build_trace(application.fresh_memory())
    digest = hashlib.sha256()
    for kernel in trace.kernels:
        lines = [f"kernel {kernel.name}"]
        for cta in kernel.ctas:
            lines.append(f"cta {cta.cta_id}")
            for warp in cta.warps:
                lines.append(f"warp {warp.warp_id}")
                for inst in warp.insts:
                    if isinstance(inst, Compute):
                        lines.append(f"C {inst.count} {inst.wait}")
                    else:
                        lines.append(
                            f"{type(inst).__name__[0]} {inst.obj} "
                            + " ".join(map(str, inst.addrs)))
        digest.update(("\n".join(lines) + "\n").encode("utf-8"))
    return digest.hexdigest()


def _oracle() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "scale,app",
    [(scale, app) for scale, apps in SCALES.items() for app in apps])
def test_trace_matches_oracle(scale, app):
    assert trace_digest(app, scale) == _oracle()[scale][app]


def test_oracle_covers_every_app():
    oracle = _oracle()
    assert {scale: sorted(apps) for scale, apps in oracle.items()} == \
        {scale: sorted(apps) for scale, apps in SCALES.items()}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        scale: {app: trace_digest(app, scale) for app in apps}
        for scale, apps in SCALES.items()
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
