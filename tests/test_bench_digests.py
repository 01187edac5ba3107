"""The benchmark's searches stay the ones recorded here.

One untimed pass of each workload in `bench/workloads.py` at seed 1 must
give the digest below, and `bench/make_fixture.py --check` must rebuild
the frozen fixture model byte for byte. A change that means to change a
search edits the expected digest here, in the same commit, and says why.

Everything runs in one subprocess, because `bench/env.py` pins BLAS to
one thread before numpy loads, and this test process has loaded numpy
already. The `prove_guided` and `learn` digests and the fixture depend on
the float bits of the network and so on the BLAS build: on a numpy or
OpenBLAS other than the one they were recorded with, those checks skip
with a message naming the mismatch, and never pass silently.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1
DIGESTS = {
    "prove_auto": "3733e1a0466938c1",
    "prove_guided": "229460e048f64dc4",
    "learn": "2983d25ca7e1143b",
}
RECORDED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

PASS = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import env
env.pin()  # before numpy loads
import make_fixture
import workloads as w

seed = int(sys.argv[2])
digests = {}
for workload in w.WORKLOADS:
    inputs, fixture = w.setup(workload, seed)
    if workload == "learn":
        result = w.learn_pass(inputs, time.perf_counter)
        records = [o.record for o in result.outcomes] + [result.record]
    else:
        records = [w.run_attempt(inp, fixture).record for inp in w.interleave(inputs)]
    digests[workload] = w.digest(records)
files = make_fixture.build()
files[make_fixture.SUMS] = make_fixture.sums_text(files).encode()
fixture = {}
for name, data in files.items():
    with open(f"{env.FIXTURE_DIR}/{name}", "rb") as fh:
        fixture[name] = fh.read() == data
print(json.dumps({"environment": env.describe(), "digests": digests, "fixture": fixture}))
"""


@pytest.fixture(scope="module")
def bench_pass():
    done = subprocess.run([sys.executable, "-c", PASS, str(BENCH), str(SEED)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _skip_on_other_blas(environment):
    here = {k: environment[k] for k in RECORDED_ON}
    if here != RECORDED_ON:
        pytest.skip(f"recorded on numpy {RECORDED_ON['numpy']} / {RECORDED_ON['blas']}, "
                    f"this run has numpy {here['numpy']} / {here['blas']}: the network's "
                    f"float bits may differ")


@pytest.mark.slow
def test_prove_auto_digest(bench_pass):
    # no network: the digest does not depend on the BLAS
    assert bench_pass["digests"]["prove_auto"] == DIGESTS["prove_auto"]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["prove_guided", "learn"])
def test_network_workload_digest(bench_pass, workload):
    _skip_on_other_blas(bench_pass["environment"])
    assert bench_pass["digests"][workload] == DIGESTS[workload]


@pytest.mark.slow
def test_fixture_rebuilds_identically(bench_pass):
    _skip_on_other_blas(bench_pass["environment"])
    assert bench_pass["fixture"] == {"cnn.sgnn": True, "vocab.txt": True, "SHA256SUMS": True}
