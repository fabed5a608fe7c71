import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lotva import parse_complex, parse_diagram, parse_lot
from lotva.sweep import iter_small_lots, random_lot

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fig1():
    return parse_lot((FIXTURES / "fig1.lot").read_text())


@pytest.fixture(scope="session")
def fig3():
    return parse_lot((FIXTURES / "fig3.lot").read_text())


@pytest.fixture(scope="session")
def prime():
    return parse_lot((FIXTURES / "prime.lot").read_text())


@pytest.fixture(scope="session")
def square_complex():
    return parse_complex((FIXTURES / "square.cplx").read_text())


@pytest.fixture(scope="session")
def torus(square_complex):
    return parse_diagram((FIXTURES / "torus.diag").read_text())


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def sweep6_every97():
    """Every 97th LOT of the <=6-edge sweep; generating the sweep is the
    expensive part, so the differential tests share one copy."""
    return list(itertools.islice(iter_small_lots(6), 0, None, 97))


@pytest.fixture(scope="module")
def differential_lots(sweep6_every97):
    """Every 97th <=6-edge LOT and 150 random 7-24-edge LOTs."""
    rng = random.Random(20)
    return [*sweep6_every97,
            *(random_lot(rng, rng.randrange(7, 25)) for _ in range(150))]
