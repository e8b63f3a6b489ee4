"""The benchmark's hook points in superfn still exist where it patches them.

``perfbench/spans.py`` wraps functions by module attribute and replaces
methods through ``cls.__dict__[attr]``, so a method inherited from a base
class would break traced runs only.  This test fails first instead.  So
do a change to the suite report shape that ``perfbench/workloads.py``
reads and a change to the package internals that ``spans.py`` reads.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from superfn import cg, ugl
from superfn.cg import CG
from superfn.grading import Dims
from superfn.spherical import verify_t51
from superfn.superpoly import Poly, symbol
from superfn.ugl import UEl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _resolve(module_name: str, path: str):
    """What spans.py patches; a method must be in its own class's dict."""
    module = importlib.import_module(f"superfn.{module_name}")
    if "." not in path:
        return getattr(module, path)
    cls_name, attr = path.split(".")
    return vars(getattr(module, cls_name))[attr]


@pytest.mark.parametrize("name, module, path", spans.SPANS,
                         ids=[name for name, _, _ in spans.SPANS])
def test_span_target_is_patchable(name, module, path):
    assert callable(_resolve(module, path))


def test_counter_targets_are_patchable():
    for op in spans.Counter.SCALAR_OPS:
        assert callable(_resolve("scalar", f"Scalar.{op}"))
    assert callable(_resolve("grassmann", "GEl.__mul__"))


def test_scalar_backend_hook_resolves():
    """``perfbench/run.py`` imports ``superfn.scalar._rat`` to name the
    rational backend, and the counter reads ``Scalar.im`` as a truth value:
    every part is an int or a _rat, and _rat takes each one back exactly."""
    from superfn.scalar import Scalar, ONE, I, _rat

    assert f"{_rat.__module__}.{_rat.__qualname__}"
    half = Scalar(1) / 2
    for part in (ONE.re, ONE.im, I.im, half.re, (half * 2).re):
        assert type(part) in (int, _rat)
        assert _rat(part) == part
    assert not ONE.im and not half.im and I.im


@pytest.mark.parametrize("dims", [Dims(1, 1), Dims(2, 1), Dims(3, 1),
                                  Dims(1, 2)], ids=["11", "21", "31", "12"])
def test_suite_check_reads_the_t51_report(dims):
    """The dims at which the ``radial`` workload checks verify_t51."""
    assert workloads.suite_check(json.dumps(verify_t51(dims))) is None


def test_oracle_term_count_reads_the_oracle_argument():
    """The traced oracle counts ``len(f.poly.terms)`` of its argument."""
    dims = Dims(1, 1)
    f = CG.t(dims, 1, 1) * CG.tbar(dims, 1, 1) + CG.one(dims)
    assert type(f.poly) is Poly
    assert f.poly == Poly.from_symbol(symbol("t", 1, 1, 0)) * \
        Poly.from_symbol(symbol("tb", 1, 1, 0)) + Poly.one()
    tracer = spans.Tracer()
    oracle = tracer._make("cg.oracle")(cg.is_zero_mod_j)
    assert not oracle(f, "pairing").is_zero
    assert tracer.counts["cg.oracle.terms_in"] == 2
    assert tracer.calls["cg.oracle_pairing"] == 1


def test_normalize_cache_metric_reads_the_cache_word_fills(monkeypatch):
    """``spans.py`` reads ``ugl._normalize_cache`` with a default of (), so a
    rename would read 0 entries instead of failing."""
    monkeypatch.setattr(ugl, "_normalize_cache", {})
    UEl.word(Dims(1, 1), ((2, 1), (1, 2)))
    assert type(ugl._normalize_cache) is dict and ugl._normalize_cache
    metrics = spans.Tracer().layer_metrics()
    assert metrics["ugl.normalize_cache.entries"] == len(ugl._normalize_cache)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_checks_accept_the_outputs(workload, seed):
    """Every job of every workload, run once in order, gives an output its
    own check accepts, so a change the benchmark would refuse as incorrect
    fails here first."""
    for job in workloads.WORKLOADS[workload](seed):
        err = job.check(job.run())
        assert err is None, (job.name, err)
