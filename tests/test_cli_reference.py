"""Every CLI request of the benchmark prints its pinned response.

``perfbench/reference.json["cli"]`` pins the exit code and the sha256 of
stdout of each request that the ``cli-cache`` workload sends.  Each
request runs here on an empty cache directory (cold: it computes and
writes) and then again on the same directory (warm: a cached result is
served from its entry); both runs must print the pinned bytes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fermat_hodge import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
PINNED = WORKLOADS.load_reference()["cli"]
REQUESTS = {
    WORKLOADS.request_key(argv): argv
    for argv in WORKLOADS.HOT_REQUESTS
    + WORKLOADS.COLD_REQUESTS
    + WORKLOADS.UNCACHED_REQUESTS
    + WORKLOADS.PREFILL_EXTRA
}


def test_every_pinned_response_has_a_request():
    assert set(PINNED) == set(REQUESTS)


@pytest.mark.parametrize("key", sorted(REQUESTS))
def test_cold_and_warm_responses_are_pinned(key, tmp_path):
    pinned = PINNED[key]
    for run in ("cold", "warm"):
        code, out = WORKLOADS.call_cli(cli, REQUESTS[key], tmp_path)
        assert code == pinned["code"], f"{run} run exited {code}"
        assert WORKLOADS.digest(out) == pinned["digest"], f"{run} response differs"
