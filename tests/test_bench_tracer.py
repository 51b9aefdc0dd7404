"""The traced benchmark run (`bench/run.py --trace 1`) patches engine
attributes by name; an engine rename or a changed call shape must fail here
rather than only in the benchmark."""

from pathlib import Path

from ealab import engines
from ealab.engines import EaConfig, EvolutionState
from ealab.genotype import OneMax

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_the_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tr = tracer.install()
    patched = list(tr.undo)
    try:
        es = EvolutionState(EaConfig(12, 2, 3, seed=4), tracer.fitness(OneMax(12)))
        es.step()
        results = engines.run_batch(EaConfig(12, 2, 3, seed=5), OneMax(12), 3, workers=1)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    assert len(results) == 3
    assert tr.counts["engines.mutate.offspring"] == 3
    assert tr.counts["engines.select.candidates"] == 5
    assert tr.spans["takeover.step"][0] == 1
    assert tr.spans["engines.evaluate"][0] == 2 + 3
    assert tr.spans["engines.batch"][0] == 1
    assert tr.spans["engines.run"][0] == 3
