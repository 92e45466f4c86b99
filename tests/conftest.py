import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def json_terms():
    """Decodes a polynomial's JSON into the map that ``LaurentPoly.terms`` holds.

    zeps writes JSON and never reads it, so the tests read it here,
    without the writers' term order or reduction.  ``int`` refuses digit
    strings past Python's int-to-str cap, so the cap is lifted while a
    document is decoded and restored afterwards.
    """

    def decode(data):
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]}
        finally:
            sys.set_int_max_str_digits(cap)

    return decode
