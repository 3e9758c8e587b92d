"""CLI outputs against committed golden files, byte for byte.

Every value in them comes from integer access counts, the range schedule
and the analytic transfer model, not from floating-point solves, so they
do not depend on the BLAS build: they came out the same with one and two
BLAS threads.  The cache sweeps run the recorder path of the cell loop
once per geometry variant.  The liveliness run has 16 batches, enough for
the two numberings to differ (at the default 4^3 cells there is one batch
and the CDF is a single point).  A change that alters an output on purpose
regenerates the files with `python tests/test_golden.py` and says so.
"""

import sys
from pathlib import Path

import pytest

from mfcg.cli import main
from mfcg.mesh import GeometryVariant

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "liveliness_both.csv": ["liveliness", "--numbering", "both", "--cells", "8",
                            "--simd-lanes", "2"],
    "transfer_model.csv": ["transfer-model"],
    **{f"cachesweep_{v.value}.csv": ["cachesweep", "--cells", "3",
                                     "--iterations", "4", "--geometry", v.value]
       for v in GeometryVariant},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    for name, argv in GOLDEN.items():
        if main(argv + ["--out", str(GOLDEN_DIR / name)]) != 0:
            sys.exit(f"{name}: {' '.join(argv)} failed")
