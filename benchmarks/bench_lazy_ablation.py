"""Ablation — the lazy comparison (Section IV-B1).

The detection scheme's low overhead hinges on *not* stalling for the
second copy: execution proceeds when the first copy arrives and the
comparison happens in the background.  This bench contrasts lazy with
an eager variant that waits for both copies, at full protection where
the difference is maximal.
"""

from conftest import banner

from repro.sim.simulator import simulate_app
from repro.utils.tables import TextTable

APPS = ("P-BICG", "P-GESUMMV", "A-Laplacian")


def test_lazy_vs_eager_detection(benchmark, managers):
    def compute():
        rows = {}
        for name in APPS:
            manager = managers[name]
            protection = manager.protection_spec("detection", "all")
            base = manager.simulate_performance("baseline", "none")
            lazy = simulate_app(
                manager.app, manager.trace, manager.memory,
                manager.config, protection=protection, lazy=True,
            )
            eager = simulate_app(
                manager.app, manager.trace, manager.memory,
                manager.config, protection=protection, lazy=False,
            )
            rows[name] = (base, lazy, eager)
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    banner("Ablation: lazy vs eager copy comparison "
           "(detection, all objects protected)")
    table = TextTable(
        ["App", "lazy slowdown", "eager slowdown", "eager/lazy"],
        float_format="{:.3f}",
    )
    for name in APPS:
        base, lazy, eager = rows[name]
        lazy_s = lazy.slowdown_vs(base)
        eager_s = eager.slowdown_vs(base)
        table.add_row([name, lazy_s, eager_s, eager_s / lazy_s])
    print(table.render())

    for name in APPS:
        base, lazy, eager = rows[name]
        # Both replicate every protected miss (exact counts differ
        # slightly: timing feeds back into L1 hit patterns)...
        assert lazy.replica_transactions > 0
        assert eager.replica_transactions > 0
        # ...but eager stalls on the slower copy.
        assert eager.cycles >= lazy.cycles, name
    # Somewhere in the suite laziness buys a real margin.
    margins = [
        rows[name][2].cycles / rows[name][1].cycles for name in APPS
    ]
    assert max(margins) > 1.01
