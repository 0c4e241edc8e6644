"""Differential test: every fast path equals the deep-copy reference.

Hypothesis draws a campaign — a small-scale application, a uniform,
mixed (``obj=scheme,...``) or SECDED protection spec, 1–4 stuck bits,
1–3 faulty blocks, a block-selection policy and a batch size — and
runs it through the production path (the batched engine's analytic
classifier and copy-on-write executed lanes, one-lane sweeps at
``batch=1`` included).  Its RunRecord and provenance JSONL must equal, byte
for byte, the stream of :meth:`~repro.faults.campaign.Campaign.
_run_reference`, which deep-copies the pristine memory, rebuilds the
replicas and executes every run.  This is the golden-run comparison
applied to every fast path at once, in place of a hand-picked cell
list.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protection import ProtectionSpec
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import miss_weighted_selection, uniform_selection
from repro.kernels.registry import create_app
from repro.runtime.cache import app_context

#: Small-scale applications covering read-only-heavy linear algebra,
#: writable intermediates (P-ATAX ``tmp``, A-SRAD's gradients), stencil
#: filters with one-block objects and C-NN's executed lanes.
APPS = ("P-BICG", "P-ATAX", "P-GESUMMV", "P-MVT", "A-Laplacian",
        "A-SRAD", "C-BlackScholes", "P-GRAMSCHM", "C-NN")


@st.composite
def campaigns(draw):
    """A zero-argument factory of one drawn campaign (called once for
    the fast path and once for the reference, so neither shares the
    other's memoized state)."""
    app = create_app(draw(st.sampled_from(APPS)), scale="small")
    objects = app_context(app).pristine.objects
    # The schemes replicate read-only input data only.
    names = [obj.name for obj in objects if obj.read_only]
    kind = draw(st.sampled_from(("uniform", "mixed", "secded")))
    secded = kind == "secded"
    if kind == "mixed":
        chosen = draw(st.lists(st.sampled_from(names), min_size=1,
                               unique=True))
        how = {"protection": ProtectionSpec.parse(",".join(
            f"{name}={draw(st.sampled_from(('detection', 'correction')))}"
            for name in chosen
        ))}
    else:
        scheme = "baseline" if secded else draw(
            st.sampled_from(("baseline", "detection", "correction")))
        protect = () if scheme == "baseline" else tuple(draw(
            st.lists(st.sampled_from(names), min_size=1, unique=True)))
        how = {"scheme": scheme, "protect": protect}
    policy = draw(st.sampled_from(("uniform", "objects", "weighted")))
    if policy == "objects":
        pool_objects = draw(st.lists(st.sampled_from(objects), min_size=1,
                                     unique_by=lambda obj: obj.name))
    else:
        pool_objects = objects
    pool = [addr for obj in pool_objects for addr in obj.block_addrs()]
    if policy == "weighted":
        # Weighted draws go through the batched planner's emulated
        # without-replacement choice; some blocks get zero weight.
        weights = np.random.default_rng(
            draw(st.integers(0, 2**16))).integers(0, 4, len(pool))
        weights[0] = 1
        selection = miss_weighted_selection(dict(zip(pool, weights)))
    else:
        selection = uniform_selection(pool)
    config = CampaignConfig(
        runs=draw(st.integers(4, 20)),
        n_blocks=draw(st.integers(1, 3)),
        n_bits=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        secded=secded,
    )
    batch = draw(st.sampled_from((1, 2, 5, 16)))

    def make(batch=1):
        return Campaign(app, selection, **how, config=config,
                        collect_records=True, collect_provenance=True,
                        batch=batch)

    return make, batch


def jsonl(records) -> str:
    return "\n".join(record.to_json() for record in records)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(campaigns())
def test_fast_paths_equal_deep_copy_reference(drawn):
    make, batch = drawn
    result = make(batch).run()
    reference = make()
    records, provenance = [], []
    for run_index in range(reference.config.runs):
        reference._run_reference(run_index, record_sink=records,
                                 provenance_sink=provenance)
    assert jsonl(result.records) == jsonl(records)
    assert jsonl(result.provenance) == jsonl(provenance)
