import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import (
    FuncFamily, HFamily, min_cap, parse_ordinal, solve_separation, sum_threshold_family,
)
from fanlab import cli
from fanlab.cli import main
from fanlab.errors import FanlabError
from fanlab.families import MAX_STAGES
from fanlab.ordinals import MAX_DIGITS, MAX_NESTING


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


def nested(depth: int, inner: str = "w") -> str:
    """An ordinal literal with depth nested 'w^(' groups."""
    return "w^(" * depth + inner + ")" * depth


@pytest.fixture
def walk_family(tmp_path, capsys):
    path = tmp_path / "fam.json"
    code, _ = run(capsys, "gen", "--kind", "walk", "--bound", "w^(2)", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def hset(tmp_path, capsys, walk_family):
    path = tmp_path / "h.json"
    code, _ = run(
        capsys, "hset", "--family", str(walk_family), "--indices", "first:3", "--out", str(path)
    )
    assert code == 0
    return path


class TestGen:
    def test_walk_descriptor(self, capsys):
        code, out = run(capsys, "gen", "--kind", "walk", "--bound", "w^(2)")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "walk" and doc["ladders"]["kind"] == "canonical"

    def test_seeded_descriptor_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run(
                capsys, "gen", "--kind", "ladder", "--bound", "w^(3)",
                "--ladders", "seeded", "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_ordinal_exits_2(self, capsys):
        code, _ = run(capsys, "gen", "--kind", "walk", "--bound", "3+w")
        assert code == 2


class TestEval:
    def test_matches_library(self, capsys, walk_family):
        code, out = run(
            capsys, "eval", "--family", str(walk_family), "--alpha", "5", "--beta", "w+1"
        )
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_grid(self, capsys, walk_family):
        code, out = run(capsys, "eval", "--family", str(walk_family), "--indices", "first:3")
        assert code == 0
        doc = json.loads(out)
        family = FuncFamily.from_json(json.loads(walk_family.read_text()))
        from fanlab import parse_ordinal

        for i, j, value in doc["values"]:
            a = parse_ordinal(doc["indices"][i])
            b = parse_ordinal(doc["indices"][j])
            assert family.value(a, b) == value

    def test_integer_indices_below_an_ordinal_bound_exit_5(self, tmp_path, capsys):
        family = tmp_path / "explicit.json"
        family.write_text(json.dumps({
            "kind": "explicit", "bound": "w", "indices": [0, 1, 2],
            "table": [[0, 1, 3], [1, 2, 4]], "default": 0,
        }))
        for argv in (
            ["gen", "--kind", "explicit", "--table", str(family)],
            ["eval", "--family", str(family), "--alpha", "0", "--beta", "1"],
            ["hset", "--family", str(family), "--indices", "0,1,2"],
        ):
            assert main(argv) == 5
            assert "integer indices" in assert_one_error_line(capsys)

    def test_long_successor_walk(self, capsys, walk_family):
        code, out = run(capsys, "eval", "--family", str(walk_family), "--indices", "w,w+200000")
        assert code == 0
        assert json.loads(out)["values"] == [[0, 1, 200000]]

    def test_far_ladder_entry(self, tmp_path, capsys):
        # w*100000 is entry 100000 of the ladder of w^(2), past the old search's 2^16 reach
        family = tmp_path / "walk3.json"
        assert run(capsys, "gen", "--kind", "walk", "--bound", "w^(3)", "--out", str(family))[0] == 0
        code, out = run(capsys, "eval", "--family", str(family), "--indices", "w*100000,w^(2)")
        assert code == 0
        assert json.loads(out)["values"] == [[0, 1, 1]]

    @pytest.mark.parametrize(
        "flags", [["--indices", "3,w"], ["--indices", "w,3"], ["--alpha", "1", "--beta", "w+5"]]
    )
    def test_mixed_int_and_ordinal_indices_exit_5(self, tmp_path, capsys, flags):
        family = tmp_path / "fam.json"
        family.write_text(json.dumps(FuncFamily.explicit({(0, 1): 3}).to_json()))
        code = main(["eval", "--family", str(family), *flags])
        err = capsys.readouterr().err
        assert code == 5 and "not a mix" in err

    @pytest.mark.parametrize(
        "data, problem",
        [({"kind": "walk", "bound": "w^(2)"}, "'ladders' object"), ([1], "JSON object")],
    )
    def test_malformed_family_exits_5(self, tmp_path, capsys, data, problem):
        bad = tmp_path / "fam.json"
        bad.write_text(json.dumps(data))
        code = main(["eval", "--family", str(bad), "--indices", "first:3"])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error:") and problem in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data, problem",
        [
            ({"table": [[0, 1, 3]], "default": -4}, "'default' must be a natural"),
            ({"table": [[0, 1, 3], [0, 1, 5]]}, "table row (0, 1) is listed twice"),
            ({"indices": [0, 0, 1]}, "family index 0 is listed twice"),
            (
                {"kind": "walk", "bound": "w^(2)",
                 "ladders": {"kind": "explicit", "table": {"w": ["1", "5"]}}},
                "unknown ladder kind 'explicit'",
            ),
        ],
    )
    def test_bad_explicit_data_exits_5(self, tmp_path, capsys, data, problem):
        family = tmp_path / "fam.json"
        base = {"kind": "explicit", "bound": None, "indices": [0, 1, 2], "table": []}
        family.write_text(json.dumps({**base, **data}))
        for argv in (
            ["gen", "--kind", "explicit", "--table", str(family)],
            ["eval", "--family", str(family), "--indices", "0,1,2"],
        ):
            assert main(argv) == 5
            assert problem in assert_one_error_line(capsys)


class TestRandomIndices:
    def test_unreachable_count_exits_5_promptly(self, tmp_path, capsys):
        family = tmp_path / "w3.json"
        code, _ = run(capsys, "gen", "--kind", "walk", "--bound", "w^(3)", "--out", str(family))
        assert code == 0
        start = time.perf_counter()
        code = main(["eval", "--family", str(family), "--indices", "random:40"])
        assert code == 5
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert err.startswith("error:") and "asked for 40" in err

    def test_reachable_count_keeps_its_draws(self, capsys, walk_family):
        from fanlab import parse_ordinal, random_ordinal
        from fanlab.ordinals import index_to_json

        code, out = run(
            capsys, "eval", "--family", str(walk_family), "--indices", "random:6", "--seed", "3"
        )
        assert code == 0
        rng, points = random.Random(3), set()
        while len(points) < 6:
            points.add(random_ordinal(rng, parse_ordinal("w^(2)")))
        assert json.loads(out)["indices"] == [index_to_json(p) for p in sorted(points)]


class TestIndexSpecs:
    @pytest.mark.parametrize("spec", ["first:x", "random:x"])
    @pytest.mark.parametrize("command", ["eval", "hset"])
    def test_non_integer_count_exits_5(self, capsys, walk_family, command, spec):
        code = main([command, "--family", str(walk_family), "--indices", spec])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error:") and spec in err and "Traceback" not in err

    @pytest.mark.parametrize("listed", ["w,w*2,w", ["w", "w*2", "w"], ["w", "w*2", "w*2"]])
    def test_repeated_indices_exit_5(self, tmp_path, capsys, walk_family, hset, listed):
        ladder = tmp_path / "ladder.json"
        assert main(["gen", "--kind", "ladder", "--bound", "w^(2)", "--out", str(ladder)]) == 0
        config = tmp_path / "config.json"
        for key, argv in (
            ("indices", ["eval", "--family", walk_family]),
            ("indices", ["hset", "--family", walk_family]),
            ("subset", ["separate", "--hset", hset]),
            ("subset", ["mincap", "--hset", hset]),
            ("subset", ["space", "--hset", hset]),
            ("first", ["adversary", "--hset", hset, "--second", "w*3"]),
            ("avoid", ["bound", "--family", ladder]),
        ):
            config.write_text(json.dumps({key: listed}))
            assert main([*map(str, argv), "--config", str(config)]) == 5
            assert "is listed twice" in assert_one_error_line(capsys)

    def test_repeated_integer_subset_exits_5(self, tmp_path, capsys):
        # separate and mincap exited 1 on a repeat, from the pair (0, 0)
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"indices": [0, 1, 2], "entries": [[0, 2, [[1, 1]]]]}))
        for command in ("separate", "mincap", "space"):
            assert main([command, "--hset", str(table), "--subset", "0,0,1"]) == 5
            assert "index 0 is listed twice" in assert_one_error_line(capsys)


class TestLiteralLimits:
    def test_deepest_literals_run_through_every_command(self, tmp_path, capsys):
        family, h = tmp_path / "f.json", tmp_path / "h.json"
        indices = [nested(MAX_NESTING), nested(MAX_NESTING, "w*2")]
        bound = nested(MAX_NESTING, "w*3")
        assert main(["gen", "--kind", "walk", "--bound", bound, "--out", str(family)]) == 0
        code, out = run(capsys, "eval", "--family", str(family), "--indices", ",".join(indices))
        assert code == 0 and json.loads(out)["indices"] == indices
        code, _ = run(
            capsys, "hset", "--family", str(family), "--indices", ",".join(indices), "--out", str(h)
        )
        assert code == 0
        code, out = run(capsys, "space", "--hset", str(h), "--format", "dot")
        assert code == 0 and out.startswith("graph space {")

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
    def test_deeper_literals_exit_2_at_once(self, capsys, walk_family, depth):
        start = time.perf_counter()
        for argv in (
            ["gen", "--kind", "walk", "--bound", nested(depth)],
            ["eval", "--family", walk_family, "--alpha", "1", "--beta", nested(depth)],
            ["hset", "--family", walk_family, "--indices", f"w,{nested(depth)}"],
        ):
            assert main([str(a) for a in argv]) == 2
            assert f"at most {MAX_NESTING}" in assert_one_error_line(capsys)
        assert time.perf_counter() - start < 5

    def test_longest_numbers_are_printed(self, capsys, walk_family):
        # the walk from w*2 + 10^k - 1 down to w runs 10^k - 1 successor steps, then one limit step
        nines = "9" * MAX_DIGITS
        code, out = run(
            capsys, "eval", "--family", str(walk_family), "--alpha", "w", "--beta", f"w*2+{nines}"
        )
        assert code == 0 and json.loads(out)["value"] == 10**MAX_DIGITS

    def test_overlong_numbers_exit_2(self, tmp_path, capsys, walk_family):
        nines = "9" * 5000
        table = tmp_path / "h.json"
        table.write_text(json.dumps({"indices": ["w", f"w*{nines}"]}))
        for argv in (
            ["eval", "--family", walk_family, "--indices", f"w,w*{nines}"],
            ["eval", "--family", walk_family, "--alpha", "1", "--beta", nines],
            ["hset", "--table", table],
        ):
            assert main([str(a) for a in argv]) == 2
            assert "5000 digits" in assert_one_error_line(capsys)


# Each argv asks for a count where "{}" stands.
COUNT_ARGVS = [
    ["eval", "--indices", "first:{}"],
    ["eval", "--indices", "random:{}"],
    ["growth", "--schedule", "first:2..{}"],
    ["growth", "--schedule", "first:{}..3"],
    ["bound", "--gamma", "w*2", "--points", "{}"],
    ["bound", "--gamma", "w*2", "--prefix-depth", "{}"],
    ["bound", "--gamma", "w*2", "--probe", "{}"],
    ["bound", "--avoid", "w", "--club", "first:{}"],
]


class TestCountBudget:
    @pytest.fixture
    def family(self, tmp_path):
        path = tmp_path / "lad.json"
        assert main(["gen", "--kind", "ladder", "--bound", "w^(2)", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv", COUNT_ARGVS)
    def test_counts_beyond_the_budget_exit_3(self, capsys, monkeypatch, family, argv):
        monkeypatch.setattr(cli, "MAX_ASKED", 8)
        command, *flags = argv
        for count in (8, 9, 10**13):
            code = main([command, "--family", str(family), *(f.format(count) for f in flags)])
            err = capsys.readouterr().err
            assert (code == 3) == (count > 8), err

    @pytest.mark.parametrize("argv", COUNT_ARGVS)
    def test_negative_counts_exit_5(self, capsys, family, argv):
        command, *flags = argv
        code = main([command, "--family", str(family), *(f.format(-1) for f in flags)])
        assert code == 5
        assert "a negative count" in assert_one_error_line(capsys)


class TestHset:
    def test_materializes_staircases(self, hset):
        doc = json.loads(hset.read_text())
        assert doc["kind"] == "sum_threshold"
        assert doc["entries"]

    def test_family_hset_reemitted_byte_identically(self, capsys, hset):
        code, out = run(capsys, "hset", "--table", str(hset))
        assert code == 0
        assert out == hset.read_text()
        assert "family" in json.loads(out)

    def test_index_at_bound_exits_5(self, capsys, walk_family):
        code = main(["hset", "--family", str(walk_family), "--indices", "w,w^(2)"])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error:") and "not below the family bound" in err

    def test_corrupted_staircase_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[1, 1], [2, 2]]]]}
            )
        )
        code, _ = run(capsys, "hset", "--table", str(bad))
        assert code == 5

    def test_valid_table_reemitted(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[1, 1]]]]})
        )
        code, out = run(capsys, "hset", "--table", str(good))
        assert code == 0
        assert json.loads(out)["entries"] == [[0, 1, [[1, 1]]]]

    @pytest.mark.parametrize(
        "data",
        [
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 5, [[0, 0]]]]},
            [1, 2],
            {
                "indices": [0, 1],
                "kind": "sum_threshold",
                "family": FuncFamily.explicit({(0, 1): 1}).to_json(),
                "entries": [[0, 5, [[0, 0]]]],
            },
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[0, math.inf]]]]},
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[2.7, 1]]]]},
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[2, True]]]]},
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [["3", 1]]]]},
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[1, math.nan]]]]},
            {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[2.0, 1]]]]},
        ],
    )
    def test_malformed_structure_exits_5(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for command, flag in (("hset", "--table"), ("mincap", "--hset")):
            code = main([command, flag, str(bad)])
            err = capsys.readouterr().err
            assert code == 5
            assert err.startswith("error:") and "Traceback" not in err

    def test_threshold_beyond_the_bound_exits_3(self, capsys, walk_family):
        from fanlab.cdw import MAX_THRESHOLD

        for n, expected in ((MAX_THRESHOLD, 0), (MAX_THRESHOLD + 1, 3)):
            code = main(["hset", "--family", str(walk_family), "--indices", f"w,w+{n}"])
            capsys.readouterr()
            assert code == expected

    @pytest.mark.parametrize("digits", [1500, 4300])
    def test_coordinates_past_the_digit_limit_exit_5(self, tmp_path, capsys, digits):
        # a 4300-digit size cannot be printed; 1500 digits ran (space exit 3, mincap 0)
        big = tmp_path / "big.json"
        huge = "9" * digits
        big.write_text(f'{{"indices": [0, 1], "entries": [[0, 1, [[{huge}, {huge}]]]]}}')
        for command in ("space", "mincap"):
            assert main([command, "--hset", str(big)]) == 5
            assert f"at most {MAX_DIGITS} digits" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "data, problem",
        [
            ({"indices": [0, 1, 0], "entries": []}, "hset index 0 is listed twice"),
            ({"indices": ["w", "w"], "entries": []}, "hset index w is listed twice"),
            (
                {"indices": [0, 1], "entries": [[0, 1, [[1, 1]]], [0, 1, [[2, 2]]]]},
                "entry (0, 1) is listed twice",
            ),
        ],
    )
    def test_repeats_exit_5(self, tmp_path, capsys, data, problem):
        bad = tmp_path / "repeats.json"
        bad.write_text(json.dumps(data))
        for command, flag in (("hset", "--table"), ("mincap", "--hset"), ("space", "--hset")):
            assert main([command, flag, str(bad)]) == 5
            assert problem in assert_one_error_line(capsys)

    def test_mixed_int_and_ordinal_indices_exit_5(self, tmp_path, capsys):
        bad = tmp_path / "mixed.json"
        bad.write_text(json.dumps({"indices": [1, "w"], "kind": "explicit", "entries": []}))
        for command in ("mincap", "space"):
            code = main([command, "--hset", str(bad)])
            err = capsys.readouterr().err
            assert code == 5
            assert "not a mix" in err and "Traceback" not in err


class TestSeparate:
    def test_exit_codes_and_agreement_with_library(self, capsys, hset):
        h = HFamily.from_json(json.loads(hset.read_text()))
        for cap in (0, 1, 2, 3):
            code, out = run(capsys, "separate", "--hset", str(hset), "--cap", str(cap))
            doc = json.loads(out)
            expected = solve_separation(h, h.indices, cap)
            assert doc["status"] == expected.status
            assert code == (0 if expected.separated else 10)

    def test_blocking_pair(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text(
            json.dumps(
                {"indices": [0, 1, 2], "kind": "explicit",
                 "entries": [[0, 2, [[1, 1]]], [1, 2, [[2, 2]]]]}
            )
        )
        for engine in ("solver", "oracle"):
            docs = []
            for cap in (1, 2, 3):
                code, out = run(
                    capsys, "separate", "--hset", str(table), "--cap", str(cap), "--engine", engine
                )
                docs.append((code, json.loads(out)["blocking_pair"]))
            assert docs == [(10, [0, 2]), (10, [1, 2]), (0, None)]

    def test_oracle_engine_agrees(self, capsys, hset):
        _, solver_out = run(capsys, "separate", "--hset", str(hset), "--cap", "2")
        _, oracle_out = run(
            capsys, "separate", "--hset", str(hset), "--cap", "2", "--engine", "oracle"
        )
        assert json.loads(solver_out) == json.loads(oracle_out)

    def test_guard_exits_3(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"indices": list(range(12)), "kind": "explicit", "entries": []})
        )
        for cap in ("6", "9" * 4300):
            code = main(["separate", "--hset", str(big), "--cap", cap, "--engine", "oracle"])
            assert code == 3


class TestMincap:
    def test_matches_library(self, capsys, hset):
        h = HFamily.from_json(json.loads(hset.read_text()))
        code, out = run(capsys, "mincap", "--hset", str(hset))
        assert code == 0
        assert json.loads(out)["min_cap"] == min_cap(h, h.indices)

    def test_queries_read_the_hset_entries(self, capsys, monkeypatch, hset):
        _, expected = run(capsys, "mincap", "--hset", str(hset))

        def evaluated(*args):
            raise AssertionError("mincap evaluated the function family")

        monkeypatch.setattr(FuncFamily, "value", evaluated)
        code, out = run(capsys, "mincap", "--hset", str(hset))
        assert (code, out) == (0, expected)

    def test_huge_square_staircase_returns_at_once(self, tmp_path, capsys):
        n = 10**12
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"indices": [0, 1, 2], "entries": [[0, 2, [[n, n]]]]}))
        start = time.perf_counter()
        code, out = run(capsys, "mincap", "--hset", str(huge))
        assert time.perf_counter() - start < 5
        doc = json.loads(out)
        assert code == 0 and (doc["min_cap"], doc["min_sum"]) == (n + 1, n + 1)


class TestAdversary:
    def test_pair_found_exits_10(self, capsys, hset):
        code, out = run(
            capsys, "adversary", "--hset", str(hset),
            "--first", "w", "--second", "w*2,w*3", "--const", "1",
        )
        assert code == 10
        assert json.loads(out)["pair"] == ["w", "w*3"]

    def test_no_pair_exits_0(self, capsys, hset):
        code, out = run(
            capsys, "adversary", "--hset", str(hset),
            "--first", "w", "--second", "w*2,w*3", "--const", "3",
        )
        assert code == 0
        assert json.loads(out)["pair"] is None

    @pytest.mark.parametrize("flags", [[], ["--first", "w"], ["--second", "w*2"]])
    def test_missing_set_exits_5(self, capsys, hset, flags):
        code, out = run(capsys, "adversary", "--hset", str(hset), *flags)
        assert code == 5 and out == ""

    def test_labels_file(self, tmp_path, capsys, hset):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"labels": [["w", 1], ["w*2", 3], ["w*3", 1]]}))
        code, out = run(
            capsys, "adversary", "--hset", str(hset),
            "--first", "w", "--second", "w*2,w*3", "--labels", str(labels),
        )
        assert code == 10
        assert json.loads(out) == {"pair": ["w", "w*3"], "values": [1, 1]}

    @pytest.mark.parametrize(
        "data, problem",
        [
            ({"labels": 5}, "'labels' list"),
            ([["w", 1]], "'labels' list"),
            ({"labels": [5]}, "bad label"),
            ({"labels": [["w"]]}, "bad label"),
            ({"labels": [["w", 1, 2]]}, "bad label"),
            ({"labels": [["w", "1"]]}, "bad label"),
            ({"labels": [[None, 1]]}, "bad label"),
            ({"labels": [["w", 1], ["w*2", 1]]}, "no label for w*3"),
            ({"labels": [["w", 0], ["w*2", 0], ["w", 5], ["w*3", 0]]}, "labels w twice"),
        ],
    )
    def test_malformed_labels_exit_5(self, tmp_path, capsys, hset, data, problem):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(data))
        code = main([
            "adversary", "--hset", str(hset),
            "--first", "w", "--second", "w*2,w*3", "--labels", str(labels),
        ])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert problem in captured.err and "Traceback" not in captured.err


class TestBound:
    @pytest.fixture
    def ladder_family(self, tmp_path, capsys):
        path = tmp_path / "lad.json"
        code, _ = run(
            capsys, "gen", "--kind", "ladder", "--bound", "w^(3)",
            "--ladders", "seeded", "--seed", "5", "--out", str(path),
        )
        assert code == 0
        return path

    def test_below_mode_certifies(self, capsys, ladder_family):
        code, out = run(
            capsys, "bound", "--family", str(ladder_family),
            "--gamma", "w^(2)*2", "--points", "6", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["witness"]

    def test_avoiding_mode_certifies(self, capsys, ladder_family):
        code, out = run(
            capsys, "bound", "--family", str(ladder_family),
            "--avoid", "w,w*3", "--points", "5", "--seed", "4", "--probe", "15",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert "empirical_violations" in doc

    def test_club_meeting_avoid_exits_4(self, capsys, ladder_family):
        code, _ = run(
            capsys, "bound", "--family", str(ladder_family),
            "--avoid", "w", "--club", "w,w*2+1,w^(2)+1", "--seed", "4",
        )
        assert code == 4

    def test_limit_club_top_exits_4(self, capsys, ladder_family):
        # w*2 is the club point above w, and no club point lies above w*2
        code = main([
            "bound", "--family", str(ladder_family),
            "--avoid", "w", "--club", "1,2,w*2", "--points", "0",
        ])
        assert code == 4
        assert "no element above w*2" in capsys.readouterr().err

    def test_derived_club_beyond_the_budget_exits_3(self, capsys, monkeypatch, tmp_path):
        # without --club the club runs up the ladder of the bound past the avoided points:
        # w*k + 1 is ladder entry k + 1 of w^(2), so avoiding w*k asks for k + 3 club points
        family = tmp_path / "lad2.json"
        assert main(["gen", "--kind", "ladder", "--bound", "w^(2)", "--out", str(family)]) == 0
        start = time.perf_counter()
        code = main(["bound", "--family", str(family), "--avoid", "w*1000000000000"])
        assert code == 3 and "club asks for" in capsys.readouterr().err
        assert time.perf_counter() - start < 5
        monkeypatch.setattr(cli, "MAX_ASKED", 8)
        for k, expected in ((5, 0), (6, 3)):
            code = main(["bound", "--family", str(family), "--avoid", f"w*{k}", "--points", "2"])
            assert code == expected, capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_club_bounds_the_sample(self, tmp_path, capsys, seed):
        # the club closes only points below its top w*2+1, so the sample is drawn there
        family = tmp_path / "lad.json"
        assert main([
            "gen", "--kind", "ladder", "--bound", "w^(3)", "--ladders", "seeded",
            "--seed", str(seed), "--out", str(family),
        ]) == 0
        for extra in ([], ["--probe", "8"]):
            code, out = run(
                capsys, "bound", "--family", str(family),
                "--avoid", "w", "--club", "1,2,w+1,w*2+1", *extra,
            )
            doc = json.loads(out)
            assert code == 0 and doc["violations"] == []
            assert max(map(parse_ordinal, doc["certified_on"])) == parse_ordinal("w*2+1")
        code, _ = run(capsys, "bound", "--family", str(family), "--avoid", "w", "--club", "")
        assert code == 4

    def test_walk_families_rejected(self, capsys, tmp_path, walk_family):
        code, _ = run(capsys, "bound", "--family", str(walk_family), "--gamma", "w*2")
        assert code == 5

    @pytest.mark.parametrize("ladders", ["seeded", "canonical"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--gamma", "w*100000000", "--points", "8"],
            ["--avoid", "w", "--club", "w+100000000,w*2", "--points", "3"],
            ["--gamma", "w*9999999999999999999", "--points", "2", "--seed", "2"],
        ],
    )
    def test_large_coefficients_exit_3_at_once(self, tmp_path, capsys, ladders, argv):
        # the club recursion walks about one stage per unit of a coefficient
        family = tmp_path / "lad2.json"
        assert main([
            "gen", "--kind", "ladder", "--bound", "w^(2)", "--ladders", ladders,
            "--seed", "3", "--out", str(family),
        ]) == 0
        start = time.perf_counter()
        code = main(["bound", "--family", str(family), *argv])
        assert code == 3 and f"past {MAX_STAGES}" in assert_one_error_line(capsys)
        assert time.perf_counter() - start < 1

    def test_closure_of_ever_longer_points_exits_3_at_once(self, tmp_path, capsys):
        # below this gamma the closure's points grow longer as it grows, so its
        # total terms grow quadratically in its points: the budget counts terms
        family = tmp_path / "explicit.json"
        family.write_text(
            json.dumps({"kind": "explicit", "bound": None, "indices": [], "table": []})
        )
        start = time.perf_counter()
        code = main([
            "bound", "--family", str(family), "--gamma", "w^(w^(w^(w)))",
            "--points", "2", "--seed", "2",
        ])
        assert code == 3 and f"past {MAX_STAGES} terms" in assert_one_error_line(capsys)
        assert time.perf_counter() - start < 1


class TestSpaceCommand:
    def test_json_and_dot(self, capsys, hset):
        code, out = run(capsys, "space", "--hset", str(hset), "--format", "json")
        assert code == 0
        assert "isolated" in json.loads(out)
        code, dot = run(capsys, "space", "--hset", str(hset), "--format", "dot")
        assert code == 0
        assert dot.startswith("graph space {")

    def test_oversized_space_exits_3_at_once(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"indices": [0, 1], "entries": [[0, 1, [[10**12, 0]]]]}))
        start = time.perf_counter()
        code = main(["space", "--hset", str(huge)])
        err = capsys.readouterr().err
        assert code == 3 and "isolated points" in err
        assert time.perf_counter() - start < 5


class TestGrowth:
    def test_csv_table(self, capsys, walk_family):
        code, out = run(
            capsys, "growth", "--family", str(walk_family), "--schedule", "first:2..6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,min_cap,min_sum,witness_max"
        caps = [int(line.split(",")[1]) for line in lines[1:]]
        assert caps == sorted(caps)
        assert len(lines) == 6

    def test_byte_stable(self, tmp_path, capsys, walk_family):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = run(
                capsys, "growth", "--family", str(walk_family),
                "--schedule", "random:3..6", "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "schedule, expected",
        [
            ("first:2..10000000000000", 3), ("x:2..10000000000000", 3),
            ("random:2..4", 5), ("x:2..4", 5),
        ],
    )
    def test_schedule_on_a_family_without_bound(self, tmp_path, capsys, schedule, expected):
        # the count budget comes before the mode and bound checks
        family = tmp_path / "fam.json"
        family.write_text(json.dumps(FuncFamily.explicit({(0, 1): 3}).to_json()))
        assert main(["growth", "--family", str(family), "--schedule", schedule]) == expected
        assert_one_error_line(capsys)


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--fast", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and all(c["passed"] for c in doc["checks"])


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys, hset):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hset": str(hset), "cap": 3}))
        code, out = run(capsys, "separate", "--config", str(config))
        assert code == 0
        assert json.loads(out)["status"] == "separated"

    def test_config_supplies_alpha_and_beta(self, tmp_path, capsys, walk_family):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "w", "beta": "w*2"}))
        flags = run(capsys, "eval", "--family", str(walk_family), "--alpha", "w", "--beta", "w*2")
        assert run(capsys, "eval", "--family", str(walk_family), "--config", str(config)) == flags
        assert flags[0] == 0

    def test_flags_override_config(self, tmp_path, capsys, hset):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hset": str(hset), "cap": 3}))
        code, _ = run(capsys, "separate", "--config", str(config), "--cap", "0")
        assert code == 10

    @pytest.mark.parametrize(
        "command, settings, key",
        [
            ("eval", {"indices": 5}, "indices"),
            ("eval", {"indices": "first:3", "seed": "3"}, "seed"),
            ("eval", {"indices": "first:3", "out": 7}, "out"),
        ],
    )
    def test_mistyped_values_exit_5(self, tmp_path, capsys, walk_family, command, settings, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        code = main([command, "--family", str(walk_family), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert f"config key {key!r}" in captured.err

    def test_non_object_config_exits_5(self, tmp_path, capsys, walk_family):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _ = run(capsys, "eval", "--family", str(walk_family), "--config", str(config))
        assert code == 5


# Random JSON for the input files, with the literals and keys the readers look
# for, so that some files get past the first checks.  Numbers reach 10^13: a
# file may ask for any amount of work, and the budgets turn too much into exit
# 3 (a space of more than MAX_SPACE_POINTS points, a count above MAX_ASKED).
_KEYS = st.sampled_from([
    "indices", "kind", "entries", "family", "bound", "isolated", "ladders", "seed", "table",
    "default", "labels",
])
_NUMBER = (
    st.integers(-2, 10**13) | st.floats(-10, 10) | st.booleans()
    | st.sampled_from([math.inf, -math.inf, math.nan])
)
_LITERAL = st.sampled_from(["w", "w*2", "w^(2)", "w^(w)", "w+1", "3", "x", ""])
_LEAVES = _NUMBER | st.none() | _LITERAL | st.sampled_from(
    ["explicit", "sum_threshold", "walk", "ladder", "canonical", "seeded"]
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)
_INDICES = (
    st.lists(st.integers(-1, 5), max_size=5, unique=True)
    | st.lists(st.sampled_from(["w", "w*2", "w^(2)", "w+1", "x", 1]), max_size=4) | _JSON
)
_POINT = st.tuples(_NUMBER, _NUMBER).map(list) | st.lists(_LEAVES, max_size=3)
_ENTRY = st.tuples(st.integers(-1, 3), st.integers(0, 4), st.lists(_POINT, max_size=3)).map(list)
_HSET_LIKE = st.fixed_dictionaries({"indices": _INDICES}, optional={
    "kind": st.sampled_from(["explicit", "sum_threshold", "from_space"]) | _LEAVES,
    "entries": st.lists(_ENTRY, max_size=3) | _JSON,
    "family": _JSON,
})
# A well-formed hset but for its one staircase.
_ONE_ENTRY = st.lists(_POINT, max_size=3).map(
    lambda points: {"indices": [0, 1, 2], "entries": [[0, 2, points]]}
)


def _often(valid, other=_LEAVES) -> st.SearchStrategy:
    """Draws from valid in about half the examples and from other in the rest."""
    return st.booleans().flatmap(lambda ok: valid if ok else other)


def _one_field_off(bases: list, fields: dict) -> st.SearchStrategy:
    """One of the well-formed bases with one field set from its strategy in fields."""
    field = st.sampled_from(sorted(fields)).flatmap(
        lambda key: fields[key].map(lambda value: {key: value})
    )
    return st.tuples(st.sampled_from(bases), field).map(lambda t: {**t[0], **t[1]})


# Well-formed ladders but for one field, or an explicit ladder table, a kind
# that no ladder system reads.
_LADDERS_LIKE = _one_field_off(
    [{"kind": "canonical"}, {"kind": "seeded", "seed": 3}],
    {"kind": _often(st.sampled_from(["canonical", "seeded"])), "seed": _NUMBER},
) | st.fixed_dictionaries({
    "kind": st.just("explicit"),
    "table": st.dictionaries(_LITERAL, st.lists(_LITERAL | _LEAVES, max_size=4), max_size=2)
    | _JSON,
})
_FAMILY_LIKE = _one_field_off(
    [
        {"kind": "walk", "bound": "w^(2)", "ladders": {"kind": "canonical"}},
        {"kind": "ladder", "bound": "w^(3)", "ladders": {"kind": "seeded", "seed": 5}},
        {"kind": "explicit", "bound": None, "indices": [0, 1, 2], "table": [[0, 1, 3]]},
    ],
    {
        "kind": _often(st.sampled_from(["walk", "ladder", "explicit"])),
        "bound": _LITERAL | st.sampled_from(["w^(3)", "w^(w^(2))", "w*3+2"]) | _LEAVES,
        "ladders": _LADDERS_LIKE | _JSON,
        "indices": _INDICES,
        "table": st.lists(
            st.tuples(st.integers(-1, 3), st.integers(-1, 3), _NUMBER).map(list) | _JSON,
            max_size=4,
        ) | _JSON,
        "default": _often(st.integers(-2, 10**13)),
    },
)
# Labels of w, w*2 and w*3, the sets the adversary fuzz runs with.
_LABELS_LIKE = st.tuples(*[_often(st.integers(-2, 10**13))] * 3).map(
    lambda values: {"labels": [list(pair) for pair in zip(["w", "w*2", "w*3"], values)]}
)
# Settings of every type for every key; index specs from a fixed list, since
# any count up to MAX_ASKED is honoured and `eval first:4000` evaluates some
# eight million pairs.
_SPEC = st.sampled_from([
    "first:3", "random:4", "w,w*2", "1,2", "w*3", "first:x", "random:-1", "first:2..4",
    "random:2..3", "first:10000000000000", "random:10000000000000", "first:2..10000000000000",
]) | _LEAVES | st.lists(_LEAVES, max_size=3)
_SETTING_KEYS = st.sampled_from([
    "out", "seed", "table", "indices", "format", "subset", "schedule", "ladders", "labels",
    "kind", "hset", "family", "engine", "depth_k", "const", "cap", "bound", "first", "second",
])
_SETTING = _SPEC | st.sampled_from(
    ["json", "dot", "csv", "oracle", "solver", "walk", "ladder", "explicit", "seeded"]
)
# Settings on which every command of the config fuzz succeeds, then up to three
# random ones.
_GOOD_CONFIG = {
    "indices": "first:3", "first": "w", "second": "w*2,w*3", "bound": "w^(2)", "cap": 2,
    "schedule": "first:2..4",
}
_CONFIG_LIKE = st.dictionaries(_SETTING_KEYS, _SETTING, max_size=3).map(
    lambda settings: {**_GOOD_CONFIG, **settings}
) | _JSON
_DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5, 10}


def _ends_in_documented_exit(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([str(a) for a in argv]) in _DOCUMENTED_EXITS, argv


@pytest.fixture(scope="class")
def fuzz_inputs(tmp_path_factory):
    """A walk family over w^(2), its hset over w, w*2, w*3, a ladder family over w^(2)."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    walk, hset, ladder = root / "walk.json", root / "h.json", root / "ladder.json"
    for argv in (
        ["gen", "--kind", "walk", "--bound", "w^(2)", "--out", walk],
        ["hset", "--family", walk, "--indices", "first:3", "--out", hset],
        ["gen", "--kind", "ladder", "--bound", "w^(2)", "--out", ladder],
    ):
        assert main([str(a) for a in argv]) == 0
    return walk, hset, ladder


class TestInputFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_JSON | _HSET_LIKE | _ONE_ENTRY)
    def test_any_input_file_ends_in_a_documented_exit(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(json.dumps(data))
        for command, flag in (
            ("hset", "--table"), ("space", "--hset"), ("mincap", "--hset"), ("separate", "--hset"),
        ):
            _ends_in_documented_exit([command, flag, path])

    @settings(max_examples=200, deadline=None)
    @given(_JSON | _FAMILY_LIKE)
    def test_any_family_file_ends_in_a_documented_exit(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "family.json"
        path.write_text(json.dumps(data))
        for extra in (
            ["--indices", "first:3"], ["--indices", "3,w"], ["--alpha", "1", "--beta", "w+5"],
        ):
            _ends_in_documented_exit(["eval", "--family", path, *extra])
        for extra in (["--gamma", "w*2"], ["--avoid", "w,w*3"]):
            _ends_in_documented_exit(["bound", "--family", path, "--points", "3", *extra])

    @settings(max_examples=100, deadline=None)
    @given(_JSON | _LABELS_LIKE)
    def test_any_labels_file_ends_in_a_documented_exit(self, tmp_path_factory, fuzz_inputs, data):
        path = tmp_path_factory.mktemp("fuzz") / "labels.json"
        path.write_text(json.dumps(data))
        _ends_in_documented_exit([
            "adversary", "--hset", fuzz_inputs[1], "--first", "w", "--second", "w*2,w*3",
            "--labels", path,
        ])

    # `bound` is left out: below MAX_ASKED its points, prefix_depth and probe
    # still ask for work that grows with the square of their values.
    @settings(max_examples=100, deadline=None)
    @given(_CONFIG_LIKE)
    def test_any_config_file_ends_in_a_documented_exit(self, tmp_path_factory, fuzz_inputs, data):
        walk, hset, _ = fuzz_inputs
        root = tmp_path_factory.mktemp("fuzz")
        path = root / "config.json"
        path.write_text(json.dumps(data))
        with contextlib.chdir(root):  # an "out" setting writes here
            for argv in (
                ["gen"], ["eval", "--family", walk], ["hset", "--family", walk],
                ["growth", "--family", walk], ["separate", "--hset", hset],
                ["mincap", "--hset", hset], ["space", "--hset", hset],
                ["adversary", "--hset", hset],
            ):
                _ends_in_documented_exit([*argv, "--config", path])


class TestUnreadableInputs:
    CONTENTS = {
        "not_utf8": b'{"indices": [0, 1]}\xff\xfe',
        "nested_1200": b"[" * 1200 + b"]" * 1200,
        "digits_5000": b'{"indices": [' + b"9" * 5000 + b"]}",
    }

    @staticmethod
    def readers(path, hset):
        """One command per file-reading flag, reading path through that flag."""
        return {
            "family": ["eval", "--family", path, "--indices", "first:3"],
            "hset": ["mincap", "--hset", path],
            "table": ["hset", "--table", path],
            "table_explicit": ["gen", "--kind", "explicit", "--table", path],
            "labels": [
                "adversary", "--hset", hset, "--first", "w", "--second", "w*2", "--labels", path,
            ],
            "config": ["mincap", "--hset", hset, "--config", path],
        }

    @pytest.mark.parametrize("content", CONTENTS.values(), ids=CONTENTS.keys())
    @pytest.mark.parametrize(
        "flag", ["family", "hset", "table", "table_explicit", "labels", "config"]
    )
    def test_undecodable_file_exits_5(self, tmp_path, capsys, hset, flag, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([str(a) for a in self.readers(path, hset)[flag]]) == 5
        assert "is not valid JSON" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_config_that_cannot_be_read_exits_1(self, tmp_path, capsys, hset, name):
        assert main(self.readers(str(tmp_path / name), str(hset))["config"]) == 1
        assert_one_error_line(capsys)


# Arguments for the argv fuzz: index literals, index specs and integers,
# including literals nested past MAX_NESTING and digit runs past MAX_DIGITS and
# past the interpreter's 4300-digit limit for int().  Counts stay small or jump
# past MAX_ASKED, since any count up to it is honoured.
_DIGITS = st.sampled_from([1, 19, MAX_DIGITS, MAX_DIGITS + 1, 4300, 4301]).map(
    lambda n: "9" * n
)
_ARG_LITERAL = (
    st.sampled_from(["w", "w*2", "w^(2)", "w^(w)", "w+1", "w*3+2", "3", "0", "x", "", "w*0"])
    | st.integers(0, MAX_NESTING + 2).map(nested)
    | st.sampled_from([MAX_NESTING, MAX_NESTING + 1, 2000]).map(lambda d: nested(d, "w*2"))
    | _DIGITS | _DIGITS.map(lambda d: f"w*{d}") | _DIGITS.map(lambda d: f"w^({d})")
    | st.text(alphabet="w^()*+0123456789, ", max_size=24)
)
_ARG_INT = st.integers(-3, 8).map(str) | _DIGITS | st.just(str(cli.MAX_ASKED + 1))
_ARG_SPEC = (
    st.lists(_ARG_LITERAL, max_size=4).map(",".join)
    | st.tuples(st.sampled_from(["first", "random", "w"]), _ARG_INT).map(":".join)
)


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_ARG_LITERAL, _ARG_LITERAL, _ARG_SPEC, _ARG_SPEC, _ARG_INT)
    def test_any_argv_ends_in_a_documented_exit(self, fuzz_inputs, alpha, beta, spec, other, n):
        walk, hset, ladder = fuzz_inputs
        for argv in (
            ["eval", "--family", walk, "--alpha", alpha, "--beta", beta],
            ["eval", "--family", walk, "--indices", spec, "--seed", n],
            ["hset", "--family", walk, "--indices", spec],
            ["separate", "--hset", hset, "--subset", spec, "--cap", n],
            ["adversary", "--hset", hset, "--first", spec, "--second", other, "--const", n],
            ["bound", "--family", ladder, "--avoid", spec, "--points", "2"],
            ["bound", "--family", ladder, "--gamma", alpha, "--points", "2", "--seed", n],
            ["bound", "--family", ladder, "--avoid", spec, "--club", other, "--points", "2"],
        ):
            try:
                _ends_in_documented_exit(argv)
            except SystemExit as exc:  # argparse refuses an --int value with exit 2
                assert exc.code == 2, argv


class TestExitCodeTable:
    def test_every_error_type_has_an_exit_code(self):
        kinds, todo = [], [FanlabError]
        while todo:
            kinds.append(todo.pop())
            todo.extend(kinds[-1].__subclasses__())
        for kind in kinds[1:]:
            assert any(issubclass(kind, handled) for handled in cli.EXIT_CODES), kind

    def test_docstring_lists_the_table_codes(self):
        sentence = re.search(r"Error exit codes: ([^.]*)\.", cli.__doc__).group(1)
        documented = [int(code) for code in re.findall(r"\b(\d+) ", sentence)]
        assert sorted(documented) == sorted(set(cli.EXIT_CODES.values()))


class TestParserCache:
    def test_successive_calls_get_independent_namespaces(self, monkeypatch, tmp_path):
        seen = []
        for name in ("verify", "mincap"):
            monkeypatch.setitem(
                cli._COMMANDS, name, lambda args, config: seen.append(args) or ("", 0)
            )
        assert main(["verify", "--fast"]) == 0
        assert main(["verify"]) == 0
        assert main(["mincap", "--hset", str(tmp_path / "h.json")]) == 0
        assert main(["verify", "--seed", "4"]) == 0
        first, second, third, fourth = seen
        assert len({id(args) for args in seen}) == 4
        assert first.fast is True and second.fast is None
        assert third.hset == str(tmp_path / "h.json") and not hasattr(fourth, "hset")
        assert (second.seed, fourth.seed, fourth.fast) == (None, 4, None)


def test_module_entry_point(tmp_path):
    # the child process imports the same fanlab sources as this one
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "fanlab", "gen", "--kind", "walk", "--bound", "w^(2)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["kind"] == "walk"
