import pytest
from hypothesis import given

from fanlab import (
    EMPTY_CDW,
    CdwSet,
    DomainError,
    FuncFamily,
    HFamily,
    LadderSystem,
    SpaceData,
    ValidationError,
    downward_close,
    explicit_hfamily,
    extract_from_space,
    parse_ordinal,
    sum_threshold,
    sum_threshold_family,
)
from conftest import cdw_pairs


class TestDownwardClose:
    def test_empty(self):
        assert downward_close([]) == EMPTY_CDW
        assert EMPTY_CDW.is_empty
        assert len(EMPTY_CDW) == 0

    def test_single_point(self):
        cdw = downward_close([(2, 1)])
        assert cdw.staircase == ((2, 1),)
        assert len(cdw) == 6
        assert set(cdw.points()) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}

    def test_three_points(self):
        cdw = downward_close([(4, 0), (2, 2), (3, 1)])
        assert cdw.staircase == ((2, 2), (3, 1), (4, 0))
        assert (1, 2) in cdw
        assert (3, 2) not in cdw

    @given(cdw_pairs())
    def test_closure_properties(self, pairs):
        closed = downward_close(pairs)
        assert all(p in closed for p in pairs)  # extensive
        assert downward_close(closed.points()) == closed  # idempotent
        maximal = {
            p
            for p in set(pairs)
            if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in set(pairs))
        }
        assert set(closed.staircase) == maximal

    @given(cdw_pairs())
    def test_membership_matches_dominance_scan(self, pairs):
        closed = downward_close(pairs)
        for n in range(closed.max_n() + 2):
            for m in range(closed.max_m() + 2):
                direct = any(n <= a and m <= b for a, b in pairs)
                assert ((n, m) in closed) == direct

    @given(cdw_pairs())
    def test_downward_closed(self, pairs):
        closed = downward_close(pairs)
        for n, m in closed.staircase:
            assert (n, m) in closed
            if n:
                assert (n - 1, m) in closed
            if m:
                assert (n, m - 1) in closed

    def test_cardinality_matches_enumeration(self):
        cdw = downward_close([(4, 0), (2, 2), (3, 1), (0, 5)])
        assert len(cdw) == len(set(cdw.points()))


class TestCdwSetValidation:
    def test_rejects_non_antichain(self):
        with pytest.raises(ValidationError):
            CdwSet(((1, 1), (2, 2)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            CdwSet(((3, 0), (1, 2)))

    def test_rejects_negatives(self):
        with pytest.raises(ValidationError):
            CdwSet(((-1, 0),))

    def test_coordinates_have_at_most_max_digits(self):
        from fanlab.ordinals import MAX_DIGITS

        top = 10**MAX_DIGITS - 1
        assert CdwSet(((0, top), (top, 0))).max_n() == top
        for staircase in (((0, top + 1), (top, 0)), ((0, top), (top + 1, 0))):
            with pytest.raises(ValidationError, match="digits"):
                CdwSet(staircase)

    def test_max_m_for(self):
        cdw = downward_close([(2, 2), (4, 0)])
        assert cdw.max_m_for(0) == 2
        assert cdw.max_m_for(3) == 0
        assert cdw.max_m_for(5) == -1

    @given(cdw_pairs())
    def test_max_n_for_is_the_transposed_max_m_for(self, pairs):
        closed = downward_close(pairs)
        for m in range(closed.max_m() + 2):
            expected = max((n for n in range(closed.max_n() + 1) if (n, m) in closed), default=-1)
            assert closed.max_n_for(m) == expected


class TestSumThreshold:
    def test_h_zero_is_origin_only(self):
        family = FuncFamily.explicit({(0, 1): 0})
        cdw = sum_threshold(family, 0, 1)
        assert cdw.staircase == ((0, 0),)
        assert len(cdw) == 1

    def test_h_three(self):
        family = FuncFamily.explicit({(0, 1): 3})
        cdw = sum_threshold(family, 0, 1)
        assert len(cdw) == 10
        assert cdw.staircase == ((0, 3), (1, 2), (2, 1), (3, 0))
        assert (2, 2) not in cdw

    def test_membership_is_sum_comparison(self):
        family = FuncFamily.explicit({(0, 1): 7})
        cdw = sum_threshold(family, 0, 1)
        for n in range(10):
            for m in range(10):
                assert ((n, m) in cdw) == (n + m <= 7)


class TestHFamily:
    def test_missing_entries_are_empty(self):
        h = explicit_hfamily([0, 1, 2], {(0, 1): [(1, 1)]})
        assert h.get(0, 2).is_empty
        assert h.get(0, 1) == downward_close([(1, 1)])

    def test_requires_increasing_pairs(self):
        h = explicit_hfamily([0, 1], {})
        with pytest.raises(DomainError):
            h.get(1, 0)
        with pytest.raises(DomainError):
            h.get(0, 5)

    def test_restrict(self):
        h = explicit_hfamily([0, 1, 2], {(0, 1): [(1, 1)], (1, 2): [(0, 0)]})
        sub = h.restrict([0, 2])
        assert sub.indices == (0, 2)
        assert sub.get(0, 2).is_empty

    def test_json_round_trip(self):
        h = explicit_hfamily([0, 1, 2], {(0, 1): [(1, 1), (3, 0)], (1, 2): [(0, 0)]})
        again = HFamily.from_json(h.to_json())
        assert again.indices == h.indices
        for a, b in h.pairs():
            assert again.get(a, b) == h.get(a, b)

    def test_from_space_files_load_as_explicit(self):
        data = {"indices": [0, 1], "kind": "from_space", "entries": [[0, 1, [[0, 0]]]]}
        assert HFamily.from_json(data).to_json() == {**data, "kind": "explicit"}

    def test_sum_threshold_json_round_trip(self):
        family = FuncFamily.explicit({(0, 1): 2, (1, 2): 1})
        h = sum_threshold_family(family, [0, 1, 2])
        again = HFamily.from_json(h.to_json())
        for a, b in h.pairs():
            assert again.get(a, b) == h.get(a, b)

    def test_one_table_for_every_constructor(self):
        family = FuncFamily.explicit({(0, 1): 2, (1, 2): 1})
        h = sum_threshold_family(family, [2, 0, 1])
        table = HFamily([0, 1, 2], {(a, b): h.get(a, b) for a, b in h.pairs()})
        written = h.to_json()
        assert written.pop("family") == family.to_json()
        assert table.to_json() == {**written, "kind": "explicit"}
        sub = h.restrict([0, 2])
        assert sub.family is family and sub.get(0, 2) == sum_threshold(family, 0, 2)

    def test_sum_threshold_file_without_entries_is_evaluated(self):
        family = FuncFamily.explicit({(0, 1): 2, (1, 2): 1})
        h = HFamily.from_json(
            {"indices": [0, 1, 2], "kind": "sum_threshold", "family": family.to_json()}
        )
        expected = sum_threshold_family(family, [0, 1, 2])
        assert h.to_json() == expected.to_json()

    def test_sum_threshold_file_entries_are_the_sets(self):
        family = FuncFamily.explicit({(0, 1): 2})
        h = HFamily.from_json({"indices": [0, 1], "kind": "sum_threshold",
                               "family": family.to_json(), "entries": [[0, 1, [[0, 0]]]]})
        assert h.get(0, 1).staircase == ((0, 0),)

    def test_index_at_bound_rejected_before_any_evaluation(self, monkeypatch):
        bound = parse_ordinal("w^(2)")
        family = FuncFamily.walk(LadderSystem.canonical(), bound)

        def evaluated(*args):
            raise AssertionError("a pair was evaluated")

        monkeypatch.setattr(FuncFamily, "value", evaluated)
        for indices in ([parse_ordinal("w"), bound], [bound, parse_ordinal("w^(2)+1")]):
            with pytest.raises(ValidationError):
                sum_threshold_family(family, indices)
            data = {"indices": [str(v) for v in indices], "kind": "sum_threshold",
                    "family": family.to_json()}
            with pytest.raises(ValidationError):
                HFamily.from_json(data)

    def test_from_json_rejects_corrupt_staircase(self):
        with pytest.raises(ValidationError):
            HFamily.from_json(
                {"indices": [0, 1], "kind": "explicit", "entries": [[0, 1, [[1, 1], [2, 2]]]]}
            )

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"indices": 3},
            {"indices": [None, 1]},
            {"entries": []},
            {"indices": [0, 1], "entries": {"0": 1}},
            {"indices": [0, 1], "entries": [[0, 1]]},
            {"indices": [0, 1], "entries": [[0, 5, [[0, 0]]]]},
            {"indices": [0, 1], "entries": [[1, 0, [[0, 0]]]]},
            {"indices": [0, 1], "entries": [[-1, 1, [[0, 0]]]]},
            {"indices": [0, 1], "entries": [["0", 1, [[0, 0]]]]},
            {"indices": [0, 1], "entries": [[False, True, [[0, 0]]]]},
            {"indices": [0, 1], "kind": "sum_threshold", "entries": [[0, 5, [[0, 0]]]],
             "family": FuncFamily.explicit({(0, 1): 1}).to_json()},
            {"indices": [0, 1], "kind": "from_table", "entries": []},
        ],
    )
    def test_from_json_rejects_malformed_structure(self, data):
        with pytest.raises(ValidationError):
            HFamily.from_json(data)

    def test_mixed_int_and_ordinal_indices_rejected(self):
        w = parse_ordinal("w")
        with pytest.raises(ValidationError, match="not a mix"):
            HFamily([1, w])
        with pytest.raises(ValidationError, match="not a mix"):
            HFamily.from_json({"indices": [1, "w"], "kind": "explicit", "entries": []})
        assert HFamily([w, parse_ordinal("w*2")]).indices == (w, parse_ordinal("w*2"))


class TestExtraction:
    def test_all_false_gives_empty_family(self):
        data = SpaceData((0, 1, 2), 3)
        result = extract_from_space(data)
        for a, b in result.family.pairs():
            assert result.family.get(a, b).is_empty

    def test_single_cell(self):
        data = SpaceData((0, 1), 2, {(0, 1): CdwSet(((0, 0),))})
        result = extract_from_space(data)
        assert result.family.get(0, 1).staircase == ((0, 0),)
        assert result.family.to_json()["kind"] == "explicit"

    def test_rejects_out_of_range_cells(self):
        for pairs in (
            {(0, 1): CdwSet(((5, 0),))},  # n beyond the depth
            {(0, 1): CdwSet(((0, 2),))},  # m at the depth
            {(1, 0): CdwSet(((0, 0),))},  # pair not increasing
            {(1, 1): CdwSet(((0, 0),))},  # a point with itself
            {(0, 2): CdwSet(((0, 0),))},  # position out of range
            {(-1, 1): CdwSet(((0, 0),))},
        ):
            with pytest.raises(ValidationError):
                SpaceData((0, 1), 2, pairs)
