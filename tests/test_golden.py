"""Golden CLI outputs: the stdout of one fixed pipeline, byte for byte.

Each case runs gen -> hset --family -> mincap -> separate at min_cap and at
min_cap - 1 -> space --format json and --format dot --depth-k 1 -> eval
--indices on one tiny walk family, then gen -> eval --indices -> bound
--gamma --probe 2 and bound --avoid on the ladder family of the same bound,
once with canonical and once with seeded ladders.  It compares every stdout
with the file of the same name under tests/golden/<case>/, and every exit
code with that directory's exit_codes.json.  A change that alters any output
fails here.

Regenerate the fixtures only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from fanlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
BOUND = "w^(3)"
INDICES = "5,w*2,w^(2)+w+1,w^(2)*2"
LADDERS = {
    "canonical": ["--ladders", "canonical"],
    "seeded": ["--ladders", "seeded", "--seed", "7"],
}
STEPS = [
    "gen", "hset", "mincap", "separate_at_min_cap", "separate_below_min_cap", "space", "space_dot",
    "eval", "gen_ladder", "eval_ladder", "bound_below", "bound_avoiding",
]


def fixture_name(step: str) -> str:
    return f"{step}.dot" if step == "space_dot" else f"{step}.json"


def run_pipeline(ladders: list, workdir: Path) -> dict:
    """{step: (exit code, stdout)}; each stdout is also the next steps' input file."""
    outputs = {}

    def step(name, *argv) -> Path:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        outputs[name] = (code, stdout.getvalue())
        path = workdir / fixture_name(name)
        path.write_text(stdout.getvalue())
        return path

    family = step("gen", "gen", "--kind", "walk", "--bound", BOUND, *ladders)
    hset = step("hset", "hset", "--family", family, "--indices", INDICES)
    cap = json.loads(step("mincap", "mincap", "--hset", hset).read_text())["min_cap"]
    step("separate_at_min_cap", "separate", "--hset", hset, "--cap", cap)
    step("separate_below_min_cap", "separate", "--hset", hset, "--cap", cap - 1)
    step("space", "space", "--hset", hset, "--format", "json")
    step("space_dot", "space", "--hset", hset, "--format", "dot", "--depth-k", 1)
    step("eval", "eval", "--family", family, "--indices", INDICES)
    ladder = step("gen_ladder", "gen", "--kind", "ladder", "--bound", BOUND, *ladders)
    step("eval_ladder", "eval", "--family", ladder, "--indices", INDICES)
    step("bound_below", "bound", "--family", ladder, "--gamma", "w^(2)*2", "--probe", 2)
    step("bound_avoiding", "bound", "--family", ladder, "--avoid", "w*2,w^(2)+w")
    return outputs


@pytest.fixture(scope="module", params=sorted(LADDERS))
def pipeline(request, tmp_path_factory):
    case = request.param
    return case, run_pipeline(LADDERS[case], tmp_path_factory.mktemp(case))


@pytest.mark.parametrize("step", STEPS)
def test_stdout_matches_golden(pipeline, step):
    case, outputs = pipeline
    assert outputs[step][1].encode() == (GOLDEN / case / fixture_name(step)).read_bytes()


def test_exit_codes_match_golden(pipeline):
    case, outputs = pipeline
    expected = json.loads((GOLDEN / case / "exit_codes.json").read_text())
    assert {name: code for name, (code, _) in outputs.items()} == expected


if __name__ == "__main__":
    for case, ladders in LADDERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_pipeline(ladders, Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for name, (_, text) in outputs.items():
            (target / fixture_name(name)).write_text(text)
        codes = {name: code for name, (code, _) in outputs.items()}
        (target / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
