"""The benchmark tracer wraps fanlab functions by name; every name must still exist.

`fanbench/tracing.py` is loaded read-only from its file, so a rename or a
deletion in `src/fanlab/` that would break `fanbench/run.py --trace 1` fails here.
"""

import importlib.util
from pathlib import Path

from fanlab import cli, families, ordinals

TRACING = Path(__file__).resolve().parents[1] / "fanbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_fanbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_uninstalls_on_the_package():
    original = families.verify_witness
    tracer = _tracer()
    tracer.install()
    try:
        assert families.verify_witness is not original
    finally:
        tracer.uninstall()
    assert families.verify_witness is original


def test_traced_query_prints_what_the_untraced_one_does(tmp_path, capsys):
    family = tmp_path / "walk.json"
    gen = ["gen", "--kind", "walk", "--bound", "w^(3)", "--ladders", "seeded", "--seed", "7"]
    assert cli.main([*gen, "--out", str(family)]) == 0
    argv = ["eval", "--family", str(family), "--indices", "5,w*2,w^(2)+w+1,w^(2)*2"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
        # Ordinal.compare is rebound on the class itself
        assert ordinals.OMEGA.compare(ordinals.ZERO) == 1
        assert tracer.counts["ordinals.compare.calls"] == 1
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
