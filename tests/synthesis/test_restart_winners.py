"""Golden pin for ``generate_network``'s multi-seed winner.

Freezes, for every NAS benchmark at its small (8 or 9) and 16-node
size with ``restarts`` 8 and 16 from seed 0, the winning seed and the
sha256 of the winner's canonical ``design_to_dict`` JSON.  Any change
to how restarts are run or ranked (or to anything a seed's design
depends on) that moves a winner shows up here as a named diff.

The cases share one result cache, so the 16-restart case of a size
reuses the seeds its 8-restart case already ran.

Regenerate the fixture after an *intentional* synthesis change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/synthesis/test_restart_winners.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.eval.parallel import ResultCache
from repro.eval.serialize import canonical_json, design_to_dict
from repro.synthesis import generate_network
from repro.workloads.nas import benchmark as nas_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "restart_winners.json"

SEED = 0

#: (benchmark, nodes): bt/sp need a square process count, the others a
#: power of two.
SIZES = (
    ("bt", 9), ("cg", 8), ("fft", 8), ("mg", 8), ("sp", 9),
    ("bt", 16), ("cg", 16), ("fft", 16), ("mg", 16), ("sp", 16),
)
RESTARTS = (8, 16)

CASES = [(name, nodes, restarts) for name, nodes in SIZES for restarts in RESTARTS]


def _case_id(case):
    name, nodes, restarts = case
    return f"{name}{nodes}-r{restarts}"


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("restart-winners"))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_restart_winner_matches_golden(case, cache):
    name, nodes, restarts = case
    design = generate_network(
        nas_benchmark(name, nodes).pattern, seed=SEED, restarts=restarts, cache=cache
    )
    text = canonical_json(design_to_dict(design))
    got = {
        "seed": design.seed,
        "design_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    golden = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[_case_id(case)] = got
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"regenerated {_case_id(case)} in {GOLDEN_PATH}")
    assert got == golden[_case_id(case)], f"restart winner drifted: {_case_id(case)}"


def test_golden_covers_exactly_the_cases():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_case_id(case) for case in CASES)
