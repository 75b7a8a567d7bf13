"""The benchmark tracer wraps fanlab functions by name; every name must still exist.

`fanbench/tracing.py` is loaded read-only from its file, so a rename or a
deletion in `src/fanlab/` that would break `fanbench/run.py --trace 1` fails here.
"""

import importlib.util
from pathlib import Path

from fanlab import families

TRACING = Path(__file__).resolve().parents[1] / "fanbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_on_the_package():
    spec = importlib.util.spec_from_file_location("_fanbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = families.verify_witness
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert families.verify_witness is not original
    finally:
        tracer.uninstall()
    assert families.verify_witness is original
