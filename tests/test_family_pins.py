"""Pins on the outputs of the family constructors and the seeded sampler.

Each pin is a sha256 over every entry written as its "p/q" string with
its type ("Q" for ``fractions.Fraction``, the type name otherwise), so a
change of value or a leaked int shows up.  Covered: the YM and SYM
coefficient arrays, the seeded parameter draws with the currents built
from them, the stage-1 family generators, and the payloads of the
chain-batch and oracle-triangle benchmark workloads.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from pbwforge.rationals import Q
from pbwforge.sampling import random_metric, sample_current_parameters, sample_super_parameters
from pbwforge.super_ym import isym_family_generators, super_current_from_parameters, sym_coefficients
from pbwforge.yang_mills import Current, Metric, current_from_parameters, iym_family_generators, ym_coefficients

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def encode(x):
    """Nested tuples and lists of rationals as nested lists of ("p/q", type)."""
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    return (f"{x.numerator}/{x.denominator}", "Q" if type(x) is Q else type(x).__name__)


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(encode(v)).encode())
    return h.hexdigest()


def family_metrics(s):
    n = s + 1
    return {
        "euclidean": Metric.euclidean(n),
        "minkowski": Metric.minkowski(n),
        "random-a": random_metric(random.Random(2700 + s), n),
        "random-b": random_metric(random.Random(2800 + s), n),
    }


def all_metrics():
    for s in (1, 2, 3, 4):
        for name, metric in family_metrics(s).items():
            yield s, name, metric


def test_coefficient_arrays_match_pinned_hash():
    metrics = [metric for _, _, metric in all_metrics()]
    assert digest(ym_coefficients(m) for m in metrics) == "f2507fabdaad00a79275deaba9d8e2d3669e2a53b8e81341a21ae0426641bc63"
    assert digest(sym_coefficients(m) for m in metrics) == "4244be5cfae5ccee7c8be0f4c6f6c432ecce12f6309fe335700854a0f65ac033"


def draws():
    # per metric: a YM draw for each violation target, then a super draw
    for s, name, metric in all_metrics():
        rng = random.Random(f"draws-{s}-{name}")
        for violate in (None, "s3", "s2", "s1"):
            yield metric, sample_current_parameters(rng, metric, violate=violate)
        yield metric, sample_super_parameters(rng, s + 1)


def test_seeded_draws_and_their_currents_match_pinned_hash():
    params, currents = [], []
    for metric, p in draws():
        if isinstance(p, tuple):
            params.append(p)
            currents.append(super_current_from_parameters(*p, metric))
        else:
            params.append((p.b, p.omega3, p.s3, p.s2, p.s1))
            currents.append(current_from_parameters(p, metric))
    assert all(type(c) is Current for c in currents)
    assert digest(params) == "7cf63aeaf2062a4c69337038beb554558616a5b12e55a71f9ebadc59ff8b60af"
    assert digest(currents) == "963db6981f52fa95ad8d5e710f9bc5a1a8d1ba2388064358dd156b2e28396db9"


def test_family_generators_match_pinned_hash():
    metrics = [metric for _, _, metric in all_metrics()]
    assert digest(iym_family_generators(m) for m in metrics) == "90bbb0c27419c99aedf54241cac0f63907b6af08f065176ac75b828fc717ba95"
    assert digest(isym_family_generators(m) for m in metrics) == "93bf4d0d8af12fb9177fbe6dc9fb919556ba21ef009b9bb33c6589c60f7ba328"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize(
    "name, cycles, pin",
    [
        ("ChainBatch", 2, "a5779cb3a5bed3988b5817480b3ca67883521b3d8c776fa4e33aedd1251d7fef"),
        ("OracleTriangle", 2, "1bc2835535d9c3826a9ce650d641dc1adb7a0e26062e1f98b5d2cdfd0eda9f77"),
    ],
)
def test_workload_payloads_match_pinned_hash(workloads, tmp_path, name, cycles, pin):
    wl = getattr(workloads, name)(901, tmp_path, cycles)
    wl.build()
    items = wl.warm + wl.items
    assert all(type(item.payload) is Current for item in items)
    assert digest(item.payload for item in items) == pin
