import sys

import horoflex
from horoflex import lattice, poly, semigroup
from perfbench.spans import TARGETS, Tracer, self_times


def test_self_time_of_nested_spans():
    #   0: [0, 100]
    #     1: [10, 40]
    #       2: [15, 25]
    #     3: [50, 60]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 60]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once():
    start = [0, 10, 20, 90]
    end = [100, 40, 50, 120]
    parent = [-1, 0, 0, 0]
    # children cover [10, 50] and [90, 100] of the parent
    assert self_times(start, end, parent)[0] == 100 - 40 - 10


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "horoflex" or name.startswith("horoflex.")):
            out[name] = dict(vars(module))
    out["Polynomial"] = dict(vars(poly.Polynomial))
    out["Derivation"] = dict(vars(poly.Derivation))
    return out


def test_rebinding_restores_every_original():
    import horoflex.cli  # noqa: F401  (every traced module is loaded)

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert lattice.hilbert_basis is not before["horoflex.lattice"]["hilbert_basis"]
        assert semigroup.hilbert_basis is lattice.hilbert_basis
        assert horoflex.hilbert_basis is lattice.hilbert_basis
        assert poly.Polynomial.__rmul__ is poly.Polynomial.__mul__
        assert poly.Derivation.__call__ is poly.Derivation.apply
    after = _bindings()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, (key, attr)


def test_every_target_is_found():
    import horoflex.cli  # noqa: F401

    tracer = Tracer()
    with tracer:
        rebound = {key for _, key, _ in tracer._saved}
    assert {qualname.rpartition(".")[2] for _, qualname, _ in TARGETS} <= rebound


def test_spans_nest_across_modules():
    datum = semigroup.HorosphericalDatum(1, 1, [(0, 2), (1, 2), (2, 2), (1, 1)])
    tracer = Tracer()
    tracer.op_id = 0
    with tracer:
        semigroup.is_saturated(datum)
    names = [tracer.names[n] for n in tracer.name]
    saturated = names.index("semigroup.is_saturated")
    hilbert = names.index("lattice.hilbert_basis")
    assert tracer.parent[saturated] == -1
    assert tracer.parent[hilbert] == saturated
    summary = tracer.summary()
    assert summary["semigroup.is_saturated.calls"] == 1
    assert summary["lattice.hilbert_basis.calls"] == 1
    assert summary["lattice.hilbert_basis.elements"] == len(
        lattice.hilbert_basis(datum.cone, datum.weight_lattice))
    assert summary["semigroup.is_saturated.self_ms"] <= summary["semigroup.is_saturated.total_ms"]
    assert set(tracer.op) == {0}


def test_every_benchmark_layer_metric_is_produced():
    from perfbench import run

    produced = set(Tracer().summary())
    produced |= {f"import.{m}.self_ms" for m in run.HOROFLEX_MODULES}
    produced |= {"import.other.self_ms", "trace.overhead_ratio"}
    assert {name for name, _ in run.layer_metrics()} <= produced
