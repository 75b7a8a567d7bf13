import itertools
import random

import pytest

from fanlab import (
    FuncFamily,
    GuardExceeded,
    LadderSystem,
    adversary_two_sets,
    check_separation,
    downward_close,
    exists_separation_capped,
    explicit_hfamily,
    first_limits,
    is_separation,
    min_cap,
    min_sum_labeling,
    parse_ordinal,
    solve_separation,
    sum_threshold_family,
)
from fanlab.verification import random_hfamily, random_labeling


def threshold_family(h: int, size: int):
    table = {(i, j): h for i in range(size) for j in range(i + 1, size)}
    return sum_threshold_family(FuncFamily.explicit(table), range(size))


class TestIsSeparation:
    def test_empty_family_accepts_anything(self):
        h = explicit_hfamily([0, 1, 2], {})
        assert is_separation(h, [0, 1, 2], {0: 0, 1: 0, 2: 0})

    def test_least_violating_pair(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        assert check_separation(h, [0, 1], {0: 0, 1: 0}) == (0, 1)

    def test_threshold_three_with_twos(self):
        h = threshold_family(3, 3)
        assert is_separation(h, [0, 1, 2], {0: 2, 1: 2, 2: 2})

    def test_violations_scan_in_index_order(self):
        h = explicit_hfamily([0, 1, 2], {(0, 2): [(0, 0)], (1, 2): [(0, 0)]})
        assert check_separation(h, [0, 1, 2], {0: 0, 1: 0, 2: 0}) == (0, 2)


class TestOracle:
    def test_single_pair_blocked_at_zero(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        result = exists_separation_capped(h, [0, 1], 0)
        assert result.status == "blocked" and result.witness is None

    def test_single_pair_least_witness_at_one(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        result = exists_separation_capped(h, [0, 1], 1)
        assert result.separated
        assert result.witness == {0: 0, 1: 1}

    def test_threshold_three_blocked_at_one(self):
        h = threshold_family(3, 2)
        assert exists_separation_capped(h, [0, 1], 1).status == "blocked"

    def test_guard(self):
        h = explicit_hfamily(list(range(12)), {})
        with pytest.raises(GuardExceeded):
            exists_separation_capped(h, h.indices, 6)

    def test_empty_and_singleton_separate_at_zero(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(5, 5)]})
        assert exists_separation_capped(h, [], 0).separated
        assert exists_separation_capped(h, [0], 0).separated


class TestSolver:
    def test_matches_oracle_on_the_pinned_instances(self):
        single = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        for cap in (0, 1):
            assert (
                solve_separation(single, [0, 1], cap).status
                == exists_separation_capped(single, [0, 1], cap).status
            )
        h3 = threshold_family(3, 2)
        assert solve_separation(h3, [0, 1], 1).status == "blocked"

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20)
        for _ in range(150):
            h = random_hfamily(rng, rng.randint(2, 5))
            cap = rng.randint(0, 6)
            expected = exists_separation_capped(h, h.indices, cap)
            got = solve_separation(h, h.indices, cap)
            assert got.status == expected.status
            if expected.separated:
                assert got.witness == expected.witness  # least-witness agreement

    def test_separations_actually_separate(self):
        rng = random.Random(21)
        for _ in range(100):
            h = random_hfamily(rng, rng.randint(2, 5))
            result = solve_separation(h, h.indices, rng.randint(0, 6))
            if result.separated:
                assert is_separation(h, h.indices, result.witness)


class TestMonotonicity:
    def test_cap_upward_closed(self):
        rng = random.Random(22)
        for _ in range(60):
            h = random_hfamily(rng, rng.randint(2, 4))
            cap = rng.randint(0, 4)
            if solve_separation(h, h.indices, cap).separated:
                assert solve_separation(h, h.indices, cap + 1).separated

    def test_min_cap_monotone_in_the_index_set(self):
        rng = random.Random(23)
        for _ in range(60):
            h = random_hfamily(rng, rng.randint(2, 5))
            subset = [a for a in h.indices if rng.random() < 0.5]
            assert min_cap(h, subset) <= min_cap(h, h.indices)

    def test_pointwise_domination_preserves_separation(self):
        rng = random.Random(24)
        for _ in range(60):
            h = random_hfamily(rng, rng.randint(2, 4))
            result = solve_separation(h, h.indices, 5)
            if not result.separated:
                continue
            bumped = {a: v + rng.randint(0, 3) for a, v in result.witness.items()}
            assert is_separation(h, h.indices, bumped)


class TestMinCap:
    def test_examples(self):
        assert min_cap(explicit_hfamily([0, 1, 2], {}), [0, 1, 2]) == 0
        assert min_cap(explicit_hfamily([0, 1], {(0, 1): [(0, 0)]}), [0, 1]) == 1
        assert min_cap(threshold_family(3, 3), [0, 1, 2]) == 2

    def test_witness_at_min_cap(self):
        h = threshold_family(3, 3)
        result = solve_separation(h, [0, 1, 2], 2)
        assert result.witness == {0: 2, 1: 2, 2: 2}


class TestClosedFormEngine:
    """The closed forms against the brute-force oracle, witness for witness."""

    def test_solver_matches_oracle_at_every_cap(self):
        rng = random.Random(30)
        for _ in range(120):
            h = random_hfamily(rng, rng.randint(1, 6), coord_max=rng.choice([2, 4, 6]))
            for cap in range(6):
                expected = exists_separation_capped(h, h.indices, cap)
                got = solve_separation(h, h.indices, cap)
                assert got == expected  # status and least witness; pair is not compared
                if expected.separated:
                    assert got.pair is None
                    continue
                first = next(pair for pair in h.pairs() if (cap, cap) in h.get(*pair))
                assert got.pair == first

    def test_min_cap_is_the_least_cap_the_oracle_separates(self):
        rng = random.Random(31)
        for _ in range(120):
            h = random_hfamily(rng, rng.randint(1, 6), coord_max=rng.choice([2, 4]))
            subset = [a for a in h.indices if rng.random() < 0.8]
            least = next(
                cap for cap in itertools.count()
                if exists_separation_capped(h, subset, cap).separated
            )
            assert min_cap(h, subset) == least

    def test_min_sum_matches_brute_force_up_to_five_indices(self):
        rng = random.Random(32)
        for _ in range(80):
            h = random_hfamily(rng, rng.randint(1, 5), coord_max=3)
            # an optimal label never exceeds the largest staircase coordinate plus one
            top = 1 + max(
                (max(n, m) for a, b in h.pairs() for n, m in h.get(a, b).staircase), default=0
            )
            best = min(
                sum(values)
                for values in itertools.product(range(top + 1), repeat=len(h.indices))
                if is_separation(h, h.indices, dict(zip(h.indices, values)))
            )
            result = min_sum_labeling(h, h.indices)
            assert result.exact and result.total == best
            assert is_separation(h, h.indices, result.labeling)

    def test_empty_family_over_many_indices(self):
        h = explicit_hfamily(range(1500), {})
        result = solve_separation(h, h.indices, 0)
        assert result.separated and result.witness == dict.fromkeys(range(1500), 0)
        assert min_cap(h, h.indices) == 0

    def test_min_cap_of_the_walk_family_on_24_limits(self):
        bound = parse_ordinal("w^(2)")
        limits = first_limits(bound, 24)
        h = sum_threshold_family(FuncFamily.walk(LadderSystem.canonical(), bound), limits)
        cap = min_cap(h, limits)
        assert is_separation(h, limits, dict.fromkeys(limits, cap))
        assert cap == 0 or not is_separation(h, limits, dict.fromkeys(limits, cap - 1))

    def test_blocked_result_names_the_pair(self):
        h = explicit_hfamily([0, 1, 2], {(0, 2): [(1, 1)], (1, 2): [(2, 2)]})
        result = solve_separation(h, [0, 1, 2], 1)
        assert not result.separated and result.pair == (0, 2)
        assert solve_separation(h, [0, 1, 2], 2).pair == (1, 2)
        assert solve_separation(h, [0, 1, 2], 3).pair is None


class TestMinSum:
    def test_empty_family(self):
        result = min_sum_labeling(explicit_hfamily([0, 1], {}), [0, 1])
        assert result.total == 0 and result.exact

    def test_triangle(self):
        result = min_sum_labeling(threshold_family(3, 3), [0, 1, 2])
        assert result.total == 6
        assert is_separation(threshold_family(3, 3), [0, 1, 2], result.labeling)

    def test_path(self):
        h = explicit_hfamily(
            [0, 1, 2], {(0, 1): [(t, 3 - t) for t in range(4)], (1, 2): [(0, 0)]}
        )
        result = min_sum_labeling(h, [0, 1, 2])
        assert result.total == 4 and result.exact

    def test_matches_brute_force(self):
        rng = random.Random(25)
        for _ in range(40):
            h = random_hfamily(rng, rng.randint(2, 4), coord_max=4)
            exact = min_sum_labeling(h, h.indices)
            assert exact.exact
            # brute force over all labelings bounded by the staircase maxima
            cap = 0
            for a, b in h.pairs():
                cdw = h.get(a, b)
                cap = max(cap, cdw.max_n() + 1, cdw.max_m() + 1)
            best = None
            import itertools

            for values in itertools.product(range(cap + 1), repeat=len(h.indices)):
                f = dict(zip(h.indices, values))
                if is_separation(h, h.indices, f):
                    total = sum(values)
                    best = total if best is None else min(best, total)
            assert exact.total == best

    def test_greedy_beyond_the_exact_limit_is_flagged(self):
        h = explicit_hfamily(list(range(13)), {(0, 1): [(1, 1)]})
        result = min_sum_labeling(h, h.indices)
        assert not result.exact
        assert is_separation(h, h.indices, result.labeling)


class TestAdversaryTwoSets:
    def test_empty_family_has_no_pair(self):
        h = explicit_hfamily([0, 1], {})
        assert adversary_two_sets(h, [0], [1], {0: 0, 1: 0}) is None

    def test_single_cell(self):
        h = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
        assert adversary_two_sets(h, [0], [1], {0: 0, 1: 0}) == (0, 1)

    def test_constant_labels_match_threshold_scan(self):
        rng = random.Random(26)
        size = 6
        table = {(i, j): rng.randint(0, 8) for i in range(size) for j in range(i + 1, size)}
        h = sum_threshold_family(FuncFamily.explicit(table), range(size))
        A, B = [0, 2, 4], [1, 3, 5]
        for n in range(6):
            f = {i: n for i in range(size)}
            pair = adversary_two_sets(h, A, B, f)
            expected = any(
                a < b and table[(a, b)] >= 2 * n for a in A for b in B
            )
            assert (pair is not None) == expected


class TestRandomLabelings:
    def test_random_labelings_agree_with_point_enumeration(self):
        rng = random.Random(28)
        for _ in range(100):
            h = random_hfamily(rng, rng.randint(2, 4))
            f = random_labeling(rng, h.indices, 7)
            by_enumeration = all(
                (f[a], f[b]) not in set(h.get(a, b).points()) for a, b in h.pairs()
            )
            assert is_separation(h, h.indices, f) == by_enumeration


def test_downward_close_and_separation_interact():
    # raising a label past the staircase maximum always clears the pair
    cdw = downward_close([(2, 5), (4, 1)])
    h = explicit_hfamily([0, 1], {(0, 1): cdw})
    assert is_separation(h, [0, 1], {0: 0, 1: 6})
    assert is_separation(h, [0, 1], {0: 5, 1: 0})
    assert not is_separation(h, [0, 1], {0: 2, 1: 5})
