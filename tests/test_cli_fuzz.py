"""Fuzzing the CLI boundary: every argv ends in a documented exit code.

``main`` must return 0, 1, 2 or 3, or raise ``SystemExit(2)`` for a
usage error; no other exception may escape, and a successful run
never prints the word ``nan`` ("determinant" is fine).  Dimensions run
from -1 to 7, but the valid ones whose build takes seconds (emit z 6 and
s 5, verify 5 and 6) are left out so each example stays well under a
second; ``eval`` builds nothing and runs at every dimension.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from zeps.cli import main

NUMBERS = (
    "1", "2", "1/2", "-1", "0", "3+1j", "nan", "inf", "-inf", "1/0", "1e308", "", "1e-308",
    "1e200+0j", "abc", "1e5000", "1e1000000", "9" * 4400, "1/" + "9" * 4400,
)
STEPS = (
    "1", "1/2", "2,1/3", "nan", "inf", "1/0", "1e308", "", "-1", "0", "abc", "1,2,3", "1e5000",
    "1e1000000", "9" * 4400, "1/" + "9" * 4400,
)


def slow(command: str, domain: str, dim: int) -> bool:
    """Valid requests that take seconds: the largest dimension of each builder."""
    if command == "verify":
        return dim in (5, 6)
    return command == "emit" and dim == {"z": 6, "s": 5}[domain]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("emit", "eval", "verify", "report")))
    domain = draw(st.sampled_from(("z", "s")))
    dims = st.integers(min_value=-1, max_value=7)
    dim = draw(dims.filter(lambda d: not slow(command, domain, d)))
    argv = [command, f"--dim={dim}", f"--T={draw(st.sampled_from(STEPS))}"]
    if command in ("emit", "eval"):
        argv.append(f"--domain={domain}")
    if command == "emit":
        argv.append(f"--format={draw(st.sampled_from(('json', 'text', 'latex')))}")
    if command == "eval":
        count = draw(st.integers(min_value=1, max_value=max(1, dim) + 1))
        coords = draw(st.lists(st.sampled_from(NUMBERS), min_size=count, max_size=count))
        argv.append("--point=" + ",".join(coords))
    if command == "verify":
        argv += [f"--samples={draw(st.integers(1, 3))}", f"--seed={draw(st.integers(0, 9))}"]
    return argv


@settings(max_examples=200)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert not re.search(r"\bnan", stdout.getvalue(), re.IGNORECASE), argv
