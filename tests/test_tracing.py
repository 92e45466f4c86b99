"""The names ``perfbench/tracing.py`` wraps still exist in zeps.

The tracer looks each name up with ``getattr`` and fails on a missing
one, so a rename in zeps would make every traced benchmark request fail.
The tracer is loaded from its file and only read; installing it rewires
zeps process-wide, so the traced run happens in a subprocess.
"""

import builtins
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    # as ``install`` looks them up: spanned names may fall back to a builtin
    for owner_path, attr, _ in tracing.SPANNED:
        owner = tracing._resolve(owner_path)
        assert callable(getattr(owner, attr, None) or getattr(builtins, attr)), (owner_path, attr)
    for owner_path, attr, _ in tracing.COUNTED:
        assert callable(getattr(tracing._resolve(owner_path), attr)), (owner_path, attr)


TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from zeps.cli import main
recorder = tracing.Recorder()
tracing.install(recorder)
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = recorder.call(tracing.ROOT, main, (argv,), {})
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "payload": recorder.payload().decode()}))
"""


def test_traced_requests_succeed(tracing):
    requests = [
        ["emit", "--domain", "s", "--dim", "3", "--format", "json"],
        ["eval", "--domain", "s", "--dim", "3", "--point", "1/2,1,3"],
        ["verify", "--dim", "3", "--samples", "1"],
    ]
    completed = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), json.dumps(requests)],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout)
    assert [code for code, _ in result["runs"]] == [0, 0, 0]
    emitted, value, verified = (out for _, out in result["runs"])
    assert "denominator" in json.loads(emitted)
    assert value.strip() and verified.count("PASS:") == 3
    payload = json.loads(result["payload"])
    spans = [span[0] for span in payload["spans"]]
    assert spans.count(tracing.ROOT) == 3
    assert {"verify.epsilon_check", "verify.oracle_check", "verify.tustin_check"} <= set(spans)
