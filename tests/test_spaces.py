import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import (
    CdwSet,
    CombSpace,
    FuncFamily,
    GuardExceeded,
    OrdinalParseError,
    ValidationError,
    build_space,
    clopen_check,
    explicit_hfamily,
    export_space,
    extract_from_space,
    is_separation,
    probe_fan_closure,
    space_from_json,
    space_separation_check,
    space_to_json,
    sum_threshold_family,
    tabulate_intersections,
)
from fanlab import spaces
from fanlab.verification import random_hfamily, random_labeling


def threshold_family(h: int, size: int):
    table = {(i, j): h for i in range(size) for j in range(i + 1, size)}
    return sum_threshold_family(FuncFamily.explicit(table), range(size))


_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
    | st.sampled_from(["w", "w*2", "w^(2)", "3", "x", ""])
)
_ANY_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["indices", "isolated", "kind"]), inner, max_size=3),
    max_leaves=20,
)
# Lists shaped like [[[i, n], [j, m]], ...], often with small ints for the leaves.
_PAIR_LIKE = st.lists(st.integers(0, 3), min_size=2, max_size=2) | st.lists(_LEAVES, max_size=3)
_ISOLATED_LIKE = st.lists(
    st.tuples(_PAIR_LIKE, _PAIR_LIKE).map(list) | st.lists(_PAIR_LIKE, max_size=3), max_size=4
)


class TestBuildSpace:
    def test_empty_family(self):
        space = build_space(explicit_hfamily([0, 1], {}))
        assert space.isolated == ()
        assert space.neighborhood(0, 0) == frozenset({("idx", 0)})

    def test_single_cell(self):
        space = build_space(explicit_hfamily([0, 1], {(0, 1): [(0, 0)]}))
        assert space.isolated == (((0, 0), (1, 0)),)
        assert ((0, 0), (1, 0)) in space.neighborhood(0, 0)
        assert ((0, 0), (1, 0)) not in space.neighborhood(0, 1)

    def test_isolated_point_count_matches_set_sizes(self):
        family = FuncFamily.explicit({(0, 1): 2})
        space = build_space(sum_threshold_family(family, [0, 1]))
        assert len(space.isolated) == 6

    def test_point_budget(self, monkeypatch):
        h = sum_threshold_family(FuncFamily.explicit({(0, 1): 2}), [0, 1])
        monkeypatch.setattr(spaces, "MAX_SPACE_POINTS", 6)
        assert len(build_space(h).isolated) == 6
        monkeypatch.setattr(spaces, "MAX_SPACE_POINTS", 5)
        with pytest.raises(GuardExceeded, match="6 isolated points"):
            build_space(h)

    def test_point_budget_beyond_the_index_size(self):
        # about 10^24 points: len() cannot return the count, the budget still reads it
        h = explicit_hfamily([0, 1, 2], {(0, 2): [(10**12, 10**12)]})
        assert h.get(0, 2).size() == (10**12 + 1) ** 2
        with pytest.raises(GuardExceeded, match="isolated points"):
            build_space(h)

    def test_neighborhoods_decrease(self):
        rng = random.Random(30)
        for _ in range(30):
            space = build_space(random_hfamily(rng, rng.randint(2, 4)))
            for gamma in space.indices:
                for k in range(5):
                    assert space.neighborhood(gamma, k + 1) <= space.neighborhood(gamma, k)

    def test_index_points_never_shared(self):
        rng = random.Random(31)
        for _ in range(30):
            space = build_space(random_hfamily(rng, rng.randint(2, 4)))
            for gamma in space.indices:
                for other in space.indices:
                    if other != gamma:
                        assert ("idx", other) not in space.neighborhood(gamma, 0)


class TestSeparationCheck:
    def test_empty_space_always_separates(self):
        space = build_space(explicit_hfamily([0, 1, 2], {}))
        assert space_separation_check(space, [0, 1, 2], {0: 0, 1: 0, 2: 0})

    def test_shared_point_blocks(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        space = build_space(h)
        assert not space_separation_check(space, [0, 1], {0: 0, 1: 0})
        assert space_separation_check(space, [0, 1], {0: 0, 1: 1})

    def test_matches_solver_view_everywhere(self):
        rng = random.Random(32)
        for _ in range(300):
            h = random_hfamily(rng, rng.randint(2, 5))
            space = build_space(h)
            subset = [a for a in h.indices if rng.random() < 0.7]
            f = random_labeling(rng, subset, 7)
            assert space_separation_check(space, subset, f) == is_separation(h, subset, f)


class TestClopen:
    def test_empty_space(self):
        space = build_space(explicit_hfamily([0, 1], {}))
        assert clopen_check(space, 0, 0)

    def test_single_cell_at_depth_zero(self):
        space = build_space(explicit_hfamily([0, 1], {(0, 1): [(0, 0)]}))
        assert clopen_check(space, 0, 0)

    def test_small_thresholds_exhaustively(self):
        for h in range(5):
            space = build_space(threshold_family(h, 3))
            for gamma in space.indices:
                for k in range(6):
                    assert clopen_check(space, gamma, k)


class TestFanClosure:
    def test_empty_family_escapes_at_zero(self):
        h = explicit_hfamily([0, 1], {})
        probe = probe_fan_closure(h, [0, 1], 0)
        assert not probe.adversary_wins
        assert probe.escape == {0: 0, 1: 0}

    def test_threshold_three_blocked_then_escapes(self):
        h = threshold_family(3, 2)
        assert probe_fan_closure(h, [0, 1], 1).adversary_wins
        probe = probe_fan_closure(h, [0, 1], 2)
        assert probe.escape == {0: 2, 1: 2}
        assert space_separation_check(build_space(h, [0, 1]), [0, 1], probe.escape)

    def test_adversary_means_every_labeling_meets_the_points(self):
        import itertools

        h = threshold_family(3, 2)
        space = build_space(h, [0, 1])
        for values in itertools.product(range(2), repeat=2):
            assert not space_separation_check(space, [0, 1], dict(zip([0, 1], values)))


class TestExport:
    def test_json_round_trip(self):
        rng = random.Random(33)
        for _ in range(50):
            space = build_space(random_hfamily(rng, rng.randint(2, 4)))
            assert space_from_json(space_to_json(space)) == space

    def test_dot_output_shape(self):
        space = build_space(explicit_hfamily([0, 1], {(0, 1): [(0, 0)]}))
        dot = export_space(space, "dot")
        assert dot.count("[shape=box") == 2
        assert dot.count("[shape=point") == 1
        assert dot.count("--") == 2

    def test_unknown_format(self):
        space = build_space(explicit_hfamily([0, 1], {}))
        with pytest.raises(ValidationError):
            export_space(space, "svg")

    def test_json_export_is_deterministic(self):
        h = explicit_hfamily([0, 1, 2], {(0, 2): [(1, 1)], (1, 2): [(2, 0)]})
        assert export_space(build_space(h)) == export_space(build_space(h))

    def test_rejects_malformed_points(self):
        with pytest.raises(ValidationError):
            space_from_json({"indices": [0, 1], "isolated": [[[1, 0], [0, 0]]]})

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"indices": [0, 1]},
            {"indices": 5, "isolated": []},
            {"indices": [0.5, 1], "isolated": []},
            {"indices": [0, "w"], "isolated": []},
            {"indices": [1, 0], "isolated": [[[0, 0], [1, 0]]]},
            {"indices": [0, 0], "isolated": []},
            {"indices": ["w*2", "w"], "isolated": []},
            {"indices": [0, 1], "isolated": {}},
            {"indices": [0, 1], "isolated": [5]},
            {"indices": [0, 1], "isolated": [[[0, 0], [1]]]},
            {"indices": [0, 1], "isolated": [[[0, "a"], [1, 0]]]},
            {"indices": [0, 1], "isolated": [[[0, True], [1, 0]]]},
            {"indices": [0, 1], "isolated": [[[0, 2.7], [1, 0]]]},
            {"indices": [0, 1], "isolated": [[[0, 0], [1, -1]]]},
            {"indices": [0, 1], "isolated": [[[0, 0], [2, 0]]]},
            {"indices": [0, 1], "isolated": [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]},
        ],
    )
    def test_rejects_malformed_structure(self, data):
        with pytest.raises(ValidationError):
            space_from_json(data)

    def test_isolated_points_read_in_canonical_order(self):
        rng = random.Random(35)
        for _ in range(50):
            space = build_space(random_hfamily(rng, rng.randint(2, 5)))
            doc = space_to_json(space)
            rng.shuffle(doc["isolated"])
            read = space_from_json(doc)
            assert read == space
            for fmt in ("json", "dot"):
                assert export_space(read, fmt, 1) == export_space(space, fmt, 1)

    @settings(max_examples=300, deadline=None)
    @given(_ANY_JSON | _ISOLATED_LIKE.map(lambda iso: {"indices": [0, 1, 2], "isolated": iso}))
    def test_any_json_is_read_or_rejected(self, data):
        try:
            assert isinstance(space_from_json(data), CombSpace)
        except (ValidationError, OrdinalParseError):
            pass


class TestTabulateAndExtract:
    def test_round_trip_recovers_the_family(self):
        rng = random.Random(34)
        for _ in range(50):
            h = random_hfamily(rng, rng.randint(2, 4), coord_max=5)
            space = build_space(h)
            depth = 2
            for a, b in h.pairs():
                cdw = h.get(a, b)
                depth = max(depth, cdw.max_n() + 2, cdw.max_m() + 2)
            extracted = extract_from_space(tabulate_intersections(space, depth))
            for a, b in h.pairs():
                assert extracted.family.get(a, b) == h.get(a, b)

    def test_table_is_symmetric_and_monotone(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(2, 1)]})
        data = tabulate_intersections(build_space(h), 4)
        assert data.pairs == {(0, 1): CdwSet(((2, 1),))}
        for n in range(-1, 5):
            for m in range(-1, 5):
                meets = 0 <= n <= 2 and 0 <= m <= 1
                assert data.intersects(0, n, 1, m) == data.intersects(1, m, 0, n) == meets


# -- the incidence index against the scan-based reference ---------------------
#
# Test-local copies of the scan-based neighborhood, the exhaustive clopen
# search and the pairwise-disjointness table that the incidence index, the
# closed-form clopen_check and the dominance table replaced.


def scan_neighborhood(space, gamma, k):
    points = {("idx", gamma)}
    for p in space.isolated:
        (a, n), (b, m) = p
        if (a == gamma and n >= k) or (b == gamma and m >= k):
            points.add(p)
    return frozenset(points)


def scan_clopen_check(space, gamma, k):
    target = scan_neighborhood(space, gamma, k)
    depth_cap = 1
    for (a, n), (b, m) in space.isolated:
        if a == gamma or b == gamma:
            depth_cap = max(depth_cap, n + 1, m + 1)
    for other in space.indices:
        if other == gamma:
            continue
        if not any(
            scan_neighborhood(space, other, j).isdisjoint(target) for j in range(depth_cap + 1)
        ):
            return False
    return True


def scan_tabulate(space, depth):
    hoods = {}
    for i, gamma in enumerate(space.indices):
        for n in range(depth):
            hoods[(i, n)] = scan_neighborhood(space, gamma, n)
    cells = set()
    for i in range(len(space.indices)):
        for j in range(len(space.indices)):
            if i == j:
                continue
            for n in range(depth):
                for m in range(depth):
                    if not hoods[(i, n)].isdisjoint(hoods[(j, m)]):
                        cells.add((i, n, j, m))
    return cells


@st.composite
def built_spaces(draw):
    """Spaces of explicit families: each pair's points closed downward."""
    size = draw(st.integers(1, 5))
    entries = {}
    for i in range(size):
        for j in range(i + 1, size):
            pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3))
            if pairs:
                entries[(i, j)] = pairs
    return build_space(explicit_hfamily(range(size), entries))


@st.composite
def json_spaces(draw):
    """Spaces read from JSON: arbitrary distinct points, not closed downward."""
    size = draw(st.integers(1, 5))
    positions = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
        lambda t: t[0] < t[1]
    )
    isolated = draw(st.lists(
        st.tuples(positions, st.integers(0, 7), st.integers(0, 7)),
        max_size=12 if size > 1 else 0,
        unique=True,
    ).map(lambda ts: [[[t[0][0], t[1]], [t[0][1], t[2]]] for t in ts]))
    return space_from_json({"indices": list(range(size)), "isolated": isolated})


any_space = st.one_of(built_spaces(), json_spaces())


class TestIncidenceIndex:
    @settings(max_examples=150, deadline=None)
    @given(any_space, st.integers(-1, 7))
    def test_neighborhood_equals_scan(self, space, k):
        for gamma in space.indices:
            assert space.neighborhood(gamma, k) == scan_neighborhood(space, gamma, k)

    @settings(max_examples=150, deadline=None)
    @given(any_space, st.integers(-1, 7))
    def test_clopen_check_equals_exhaustive_search(self, space, k):
        for gamma in space.indices:
            assert clopen_check(space, gamma, k) == scan_clopen_check(space, gamma, k)

    @settings(max_examples=150, deadline=None)
    @given(any_space, st.integers(0, 7))
    def test_tabulate_equals_pairwise_disjointness(self, space, depth):
        data = tabulate_intersections(space, depth)
        assert data.points == space.indices and data.depth == depth
        size, span = len(space.indices), range(-1, depth + 2)
        table = {
            (i, n, j, m)
            for i in range(size) for j in range(size) for n in span for m in span
            if data.intersects(i, n, j, m)
        }
        assert table == scan_tabulate(space, depth)

    @settings(max_examples=50, deadline=None)
    @given(any_space)
    def test_dot_export_equals_scan(self, space):
        for k in range(3):
            dot = export_space(space, "dot", k)
            edges = sum(len(scan_neighborhood(space, g, k)) - 1 for g in space.indices)
            assert dot.count(" -- ") == edges

    def test_index_without_incident_points(self):
        space = build_space(explicit_hfamily([0, 1, 2], {(0, 1): [(2, 3)]}))
        assert space.neighborhood(2, 0) == frozenset({("idx", 2)})
        assert clopen_check(space, 2, 0)
        data = tabulate_intersections(space, 4)
        assert all(2 not in pair for pair in data.pairs)
        assert not any(
            data.intersects(2, n, j, m) for j in (0, 1) for n in range(4) for m in range(4)
        )

    def test_one_index_space(self):
        space = build_space(explicit_hfamily([7], {}))
        assert space.neighborhood(7, 0) == frozenset({("idx", 7)})
        assert clopen_check(space, 7, 3)
        data = tabulate_intersections(space, 5)
        assert data.pairs == {} and not data.intersects(0, 0, 0, 0)

    def test_equality_and_hash_ignore_the_index(self):
        built = build_space(explicit_hfamily([0, 1, 2], {(0, 2): [(1, 1)], (1, 2): [(2, 0)]}))
        bare = CombSpace(built.indices, built.isolated)
        built.neighborhood(0, 0)
        assert "_incident" in vars(built) and "_incident" not in vars(bare)
        assert bare == built and hash(bare) == hash(built)
        assert [f.name for f in dataclasses.fields(CombSpace)] == ["indices", "isolated"]
        assert "_incident" not in repr(built)
        other = CombSpace(built.indices, built.isolated[:1])
        assert other != built
