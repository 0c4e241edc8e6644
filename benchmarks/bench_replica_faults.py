"""Ablation — faults landing in the replica copies themselves.

The paper stores copies at distinct DRAM locations so that the same
fault cannot hit all of them.  This bench injects faults directly
into replica space: detection still terminates (a mismatch is a
mismatch), and correction still outvotes the single bad copy — the
run completes with clean output.
"""

from conftest import RUNS, SEED, banner

from repro.core.replication import replica_name
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.outcomes import Outcome
from repro.faults.selection import uniform_selection
from repro.utils.tables import TextTable

APP = "A-Laplacian"


def _replica_campaign(manager, scheme, copy_index, runs):
    """Faults injected uniformly into one replica copy's blocks."""
    app = manager.app
    protected = manager.protected_names("hot")

    # Build the replica address map the scheme will create, by dry
    # running the same allocation in a clone.
    shadow = manager.memory.clone()
    from repro.core.schemes import make_protection

    make_protection(shadow, manager.protection_spec(scheme, "hot"))
    pool = [
        addr
        for name in protected
        for addr in shadow.object(
            replica_name(name, copy_index)).block_addrs()
    ]
    return Campaign(
        app,
        uniform_selection(pool, name=f"replica-{copy_index}"),
        scheme=scheme,
        protect=protected,
        config=CampaignConfig(runs=runs, n_blocks=1, n_bits=3,
                              seed=SEED),
    ).run()


def test_faults_in_replica_space(benchmark, managers):
    manager = managers[APP]
    runs = max(RUNS // 2, 20)

    def compute():
        return {
            ("detection", 1): _replica_campaign(
                manager, "detection", 1, runs),
            ("correction", 1): _replica_campaign(
                manager, "correction", 1, runs),
            ("correction", 2): _replica_campaign(
                manager, "correction", 2, runs),
        }

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    banner(f"Ablation: faults injected into replica copies ({APP}, "
           f"{runs} runs, 3-bit)")
    table = TextTable(
        ["Scheme", "Faulted copy", "masked", "sdc", "detected",
         "corrected", "crash"],
    )
    for (scheme, copy_index), result in results.items():
        table.add_row([
            scheme, copy_index,
            result.count(Outcome.MASKED), result.sdc_count,
            result.count(Outcome.DETECTED),
            result.count(Outcome.CORRECTED),
            result.count(Outcome.CRASH),
        ])
    print(table.render())

    # No replica fault ever becomes silent corruption or a crash.
    for result in results.values():
        assert result.sdc_count == 0
        assert result.count(Outcome.CRASH) == 0
    # Detection flags mismatches even when the *copy* is the bad one.
    assert results[("detection", 1)].count(Outcome.DETECTED) > 0
    # Correction completes every run; faults that change stored bits
    # are outvoted without surfacing to the application at all (the
    # primary stays correct, so nothing counts as 'repaired').
    for key in (("correction", 1), ("correction", 2)):
        result = results[key]
        assert result.count(Outcome.DETECTED) == 0
        assert result.count(Outcome.MASKED) + \
            result.count(Outcome.CORRECTED) == result.n_runs
