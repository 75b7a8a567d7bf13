"""The benchmark tracer wraps fanlab functions by name; every name must still exist.

`fanbench/tracing.py` is loaded read-only from its file, so a rename or a
deletion in `src/fanlab/` that would break `fanbench/run.py --trace 1` fails here.
"""

import importlib.util
from pathlib import Path

import pytest

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


def test_traced_bounds_close_their_sample_once(tmp_path, capsys):
    # The tracer rebinds close_below and close_avoiding by name, so each bound
    # run must reach its closure through those names, once.
    family = tmp_path / "ladder.json"
    gen = ["gen", "--kind", "ladder", "--bound", "w^(3)", "--ladders", "seeded", "--seed", "7"]
    assert cli.main([*gen, "--out", str(family)]) == 0
    runs = [
        ["bound", "--family", str(family), "--gamma", "w^(2)*2", "--probe", "4", "--seed", "3"],
        ["bound", "--family", str(family), "--avoid", "w*2,w^(2)+w", "--seed", "3"],
    ]
    for argv in runs:
        assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = _tracer()
    tracer.install()
    try:
        for argv in runs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
    counts = tracer.counts
    assert counts["families.close.calls"] == counts["families.weak_bound.calls"] == 2
    assert counts["families.closure_points"] > 0
    assert counts["families.bound_eval.calls"] > 0
    recorded = {tracer.names[i] for i in tracer.name_id}
    assert {"families.close", "families.weak_bound"} <= recorded


@pytest.mark.parametrize("ladders", [["--ladders", "seeded", "--seed", "7"], []])
def test_traced_eval_splits_seeded_ladder_spans_from_canonical_ones(tmp_path, capsys, ladders):
    # The tracer tells a seeded system by its kind; canonical_ladder is the
    # canonical span on both.
    family = tmp_path / "walk.json"
    gen = ["gen", "--kind", "walk", "--bound", "w^(3)", *ladders, "--out", str(family)]
    assert cli.main(gen) == 0
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main(["eval", "--family", str(family), "--indices", "5,w*2,w^(2)+w+1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {tracer.names[i] for i in tracer.name_id}
    seeded = bool(ladders)
    assert "ordinals.ladder_value.canonical" in recorded
    assert ("ordinals.ladder_value.seeded" in recorded) is seeded
    assert (tracer.counts["ordinals.ladder_value.seeded.calls"] > 0) is seeded
