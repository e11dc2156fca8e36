"""Shared packet fixtures.

Table construction does quadrature-free closed-form work only, but the
suite reuses the same handful of packets everywhere, so build each once
per session.  The hypothesis profile for the property tests lives here
too.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from diracpacket import PacketSpec, build_tables

# Property tests draw the same examples on every run and keep no example
# database.
settings.register_profile(
    "diracpacket", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("diracpacket")


def pytest_configure(config):
    # Hypothesis caches the literals of local modules under its home
    # directory, .hypothesis/ in the working tree unless told otherwise; it
    # does so while collecting, before any fixture runs.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture(scope="session")
def tables_u92_n20():
    """Uranium-like packet at the shell used for most quantitative checks."""
    return build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0))


@pytest.fixture(scope="session")
def tables_u92_n40():
    return build_tables(PacketSpec(Z=92, N=40, sigma_g=2.0))


@pytest.fixture(scope="session")
def tables_u92_n4():
    """Small, strongly relativistic packet; cheap enough for brute-force oracles."""
    return build_tables(PacketSpec(Z=92, N=4, sigma_g=0.8))


@pytest.fixture(scope="session")
def tables_h_n20():
    return build_tables(PacketSpec(Z=1, N=20, sigma_g=2.0))
