import pathlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

_cache = {}


def load_fixture(name):
    """Algebra + self-injectivity data for a fixture, computed once."""
    from nangulator.algebra import check_self_injective, compute_basis
    from nangulator.quiver import load_algebra_file

    if name not in _cache:
        desc = load_algebra_file(FIXTURES / f"{name}.json")
        algebra = compute_basis(desc)
        try:
            nakayama = check_self_injective(algebra)
        except Exception:
            nakayama = None
        _cache[name] = (algebra, nakayama)
    return _cache[name]


_pipeline_cache = {}


def load_pipeline(name):
    """(algebra, nakayama, engine, periodicity report), computed once."""
    from nangulator.homology import Homology
    from nangulator.periodicity import quasi_period_scan

    if name not in _pipeline_cache:
        algebra, nakayama = load_fixture(name)
        engine = Homology(algebra, nakayama)
        report = quasi_period_scan(algebra)
        _pipeline_cache[name] = (algebra, nakayama, engine, report)
    return _pipeline_cache[name]


_sequence_cache = {}


def load_sequence(name, m):
    """Functor sequence of total length m * quasi_period, computed once."""
    from nangulator.angulation import functor_sequence

    key = (name, m)
    if key not in _sequence_cache:
        algebra, nakayama, engine, report = load_pipeline(name)
        _sequence_cache[key] = functor_sequence(engine, report, m)
    return _sequence_cache[key]


def padded(maps):
    """The chain 0 -> ... -> 0 around ``maps``: with these zero maps,
    rank_exactness also checks that the first map is mono and the last epi."""
    from nangulator.modules import zero_module, zero_morphism

    z = zero_module(maps[0].source.algebra)
    return ([zero_morphism(z, maps[0].source)] + list(maps)
            + [zero_morphism(maps[-1].target, z)])


def resolution_chain(res, length):
    """M -> I_0 -> ... -> I_{length-1} -> Omega^{-length} M as a list of maps."""
    return ([res.steps[0].include]
            + [res.map_between(k) for k in range(length - 1)]
            + [res.final_projection(length)])


@pytest.fixture
def fixtures_dir():
    return FIXTURES
