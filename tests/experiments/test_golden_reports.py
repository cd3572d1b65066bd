"""Byte-exact golden pinning of experiment reports.

The perf work on the simulator kernels (dense latency tables, one
address decode per miss, the engine's timing wheel, the controller's pass
coalescing) is only legal because every simulated result stays
bit-identical; an event may go only if it provably does nothing
(DESIGN.md section 7).  These tests pin the quick fig05/fig06/fig07
reports byte-for-byte against committed golden files, so any future
"harmless" optimization that changes a result fails immediately.

Regenerating (only after an intentional semantic change)::

    PYTHONPATH=src python -c "
    from repro.experiments import fig05_proportional as m
    open('tests/experiments/golden/fig05_quick_seed0.txt', 'w').write(
        m.run(quick=True, seed=0).report() + '\\n')"
"""

from pathlib import Path

import pytest

from repro.experiments import (
    fig05_proportional,
    fig06_work_conserving,
    fig07_source_and_target,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [
    ("fig05_quick_seed0.txt", fig05_proportional),
    ("fig06_quick_seed0.txt", fig06_work_conserving),
    ("fig07_quick_seed0.txt", fig07_source_and_target),
]


@pytest.mark.parametrize("filename,module", CASES, ids=lambda c: str(c))
def test_quick_report_matches_golden_bytes(filename, module):
    golden_path = GOLDEN_DIR / filename
    expected = golden_path.read_text(encoding="utf-8")
    actual = module.run(quick=True, seed=0).report() + "\n"
    assert actual == expected, (
        f"{filename} diverged from the committed golden output; if this "
        "change is intentional, regenerate the golden file (see module "
        "docstring), otherwise an optimization broke bit-determinism"
    )
