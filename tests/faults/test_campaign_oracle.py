"""Golden oracle of the fault-injection campaigns.

``campaign_oracle.json`` pins, per cell, one SHA-256 over the cell's
RunRecord JSONL followed by its provenance JSONL, byte for byte.  The
cells are run at small scale through
:meth:`~repro.core.manager.ReliabilityManager.evaluate` on the batched
engine at batch 64:

* every registered application under the baseline and under one
  uniform scheme (detection and correction alternate down the
  registry; an application without hot objects protects its most
  important one);
* two mixed per-object specs, whose detection and correction objects
  share one start-address table;
* one SECDED-filtered cell.

The simulator and trace oracles pin the timing side; this one pins
what the protection readers, the fault planner, the analytic
classifier and the provenance derivation make of a campaign.  A change
that is meant to alter campaign output must regenerate the fixture on
purpose::

    PYTHONPATH=src python tests/faults/test_campaign_oracle.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.kernels.registry import ALL_APPLICATIONS, create_app

FIXTURE = Path(__file__).with_name("campaign_oracle.json")

RUNS = 128
BATCH = 64


def _uniform_cells() -> dict[str, dict]:
    cells = {}
    for i, app in enumerate(ALL_APPLICATIONS):
        scheme = ("detection", "correction")[i % 2]
        protect = "hot" if create_app(app, scale="small") \
            .hot_object_names else 1
        cells[f"{app}/baseline/none"] = {
            "app": app, "scheme": "baseline", "protect": "none"}
        cells[f"{app}/{scheme}/{protect}"] = {
            "app": app, "scheme": scheme, "protect": protect}
    return cells


#: cell name -> EvaluationRequest fields (``runs`` defaults to RUNS).
CELLS = {
    **_uniform_cells(),
    "P-BICG/r=detection,p=correction": {
        "app": "P-BICG", "protect": "r=detection,p=correction",
        "runs": 256},
    "P-ATAX/A=correction,x=detection": {
        "app": "P-ATAX", "protect": "A=correction,x=detection",
        "runs": 256},
    "P-BICG/detection/hot/secded-3bit": {
        "app": "P-BICG", "scheme": "detection", "protect": "hot",
        "secded": True, "n_bits": 3},
}


def cell_digest(name: str) -> str:
    """SHA-256 over one cell's RunRecord and provenance JSONL."""
    fields = {"runs": RUNS, **CELLS[name]}
    request = EvaluationRequest(
        scale="small", batch=BATCH, collect_records=True,
        collect_provenance=True, **fields)
    manager = ReliabilityManager(create_app(fields["app"], scale="small"))
    result = manager.evaluate(request=request)
    digest = hashlib.sha256()
    for record in (*result.records, *result.provenance):
        digest.update((record.to_json() + "\n").encode("utf-8"))
    return digest.hexdigest()


def _oracle() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list(CELLS))
def test_campaign_matches_oracle(name):
    assert cell_digest(name) == _oracle()[name]


def test_oracle_covers_every_cell():
    assert sorted(_oracle()) == sorted(CELLS)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: cell_digest(name) for name in CELLS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
