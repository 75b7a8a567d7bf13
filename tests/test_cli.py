import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import FuncFamily, HFamily, min_cap, solve_separation, sum_threshold_family
from fanlab import cli
from fanlab.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


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
        code, _ = run(capsys, "separate", "--hset", str(big), "--cap", "6", "--engine", "oracle")
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

    def test_walk_families_rejected(self, capsys, tmp_path, walk_family):
        code, _ = run(capsys, "bound", "--family", str(walk_family), "--gamma", "w*2")
        assert code == 5


class TestSpaceCommand:
    def test_json_and_dot(self, capsys, hset):
        code, out = run(capsys, "space", "--hset", str(hset), "--format", "json")
        assert code == 0
        assert "isolated" in json.loads(out)
        code, dot = run(capsys, "space", "--hset", str(hset), "--format", "dot")
        assert code == 0
        assert dot.startswith("graph space {")


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
# for, so that some files get past the first checks.  Numbers stay below 10:
# `space` enumerates every point of every staircase, and nothing yet bounds
# how many there are (ROADMAP item 6).
_KEYS = st.sampled_from(["indices", "kind", "entries", "family", "bound", "isolated"])
_NUMBER = (
    st.integers(-2, 9) | st.floats(-10, 10) | st.booleans()
    | st.sampled_from([math.inf, -math.inf, math.nan])
)
_LEAVES = _NUMBER | st.none() | st.sampled_from(
    ["w", "w*2", "w^(2)", "w+1", "3", "x", "", "explicit", "sum_threshold"]
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)
_POINT = st.tuples(_NUMBER, _NUMBER).map(list) | st.lists(_LEAVES, max_size=3)
_ENTRY = st.tuples(st.integers(-1, 3), st.integers(0, 4), st.lists(_POINT, max_size=3)).map(list)
_HSET_LIKE = st.fixed_dictionaries({
    "indices": st.lists(st.integers(-1, 5), max_size=5, unique=True)
    | st.lists(st.sampled_from(["w", "w*2", "w^(2)", "w+1", "x", 1]), max_size=4) | _JSON,
}, optional={
    "kind": st.sampled_from(["explicit", "sum_threshold", "from_space"]) | _LEAVES,
    "entries": st.lists(_ENTRY, max_size=3) | _JSON,
    "family": _JSON,
})
# A well-formed hset but for its one staircase.
_ONE_ENTRY = st.lists(_POINT, max_size=3).map(
    lambda points: {"indices": [0, 1, 2], "entries": [[0, 2, points]]}
)
_DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5, 10}


class TestInputFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_JSON | _HSET_LIKE | _ONE_ENTRY)
    def test_any_input_file_ends_in_a_documented_exit(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(json.dumps(data))
        for command, flag in (
            ("hset", "--table"), ("space", "--hset"), ("mincap", "--hset"), ("separate", "--hset"),
        ):
            with (
                contextlib.redirect_stdout(io.StringIO()),
                contextlib.redirect_stderr(io.StringIO()),
            ):
                assert main([command, flag, str(path)]) in _DOCUMENTED_EXITS


class TestParserCache:
    def test_successive_calls_get_independent_namespaces(self, monkeypatch, tmp_path):
        seen = []
        for name in ("verify", "mincap"):
            monkeypatch.setitem(
                cli._COMMANDS, name, lambda args, config: seen.append(args) or 0
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
    result = subprocess.run(
        [sys.executable, "-m", "fanlab", "gen", "--kind", "walk", "--bound", "w^(2)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["kind"] == "walk"
