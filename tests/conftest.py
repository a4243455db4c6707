import pytest
from hypothesis import settings

from ornaments import constructions, sweep
from ornaments.geometry import Rat

# Property tests draw the same examples on every run, and no example is
# failed for taking long: on a loaded machine the default 200 ms deadline
# fails exact-arithmetic examples that are merely slow.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def borromean_k1():
    return constructions.make_borromean(1)


@pytest.fixture(scope="session")
def borromean_k2():
    return constructions.make_borromean(2)


@pytest.fixture(scope="session")
def trivial_k1():
    return constructions.make_trivial(1)


@pytest.fixture(scope="session")
def trivial_k2():
    return constructions.make_trivial(2)


@pytest.fixture(scope="session")
def mixed_setup_track():
    """The first set-up track of the benchmark's ``mixed-k1`` workload: in
    its one keyframe interval a kept prism of component 1 meets no kept
    prism of component 2."""
    return sweep.linear_track(constructions.make_random_ornament(1, 0, 1, 8),
                              constructions.make_random_ornament(1, 0, 501, 8))


@pytest.fixture(scope="session")
def borromean_k1_triple_time():
    """The time of the one triple point on the collapse track of
    ``make_borromean(1)`` that ``mu_via_sweep`` sweeps at seed 0."""
    return Rat(44491705096433544069120, 1198279798738132699627433)
