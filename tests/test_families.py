import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import (
    OMEGA,
    BoundWitness,
    ClosureError,
    CSequence,
    DomainError,
    FuncFamily,
    GuardExceeded,
    LadderSystem,
    Ordinal,
    bound_function,
    close_avoiding,
    close_below,
    disagreement_index,
    parse_ordinal,
    random_limit,
    random_ordinal,
    separation_labeling,
    sum_threshold_family,
    ValidationError,
    verify_witness,
    weak_bound_avoiding,
    weak_bound_below,
)
from fanlab import families
from fanlab.families import WeakBound, _BoundEngine, _club_split
from conftest import ordinals

o = Ordinal.from_int
W2, W3 = parse_ordinal("w^(2)"), parse_ordinal("w^(3)")
w2, w3 = parse_ordinal("w*2"), parse_ordinal("w*3")


class TestEval:
    def test_disagreement_with_seeded_ladders(self):
        ladders = LadderSystem.seeded(2)
        assert [ladders.value(OMEGA, n) for n in range(5)] == [o(2), o(3), o(5), o(9), o(10)]
        assert [ladders.value(w2, n) for n in range(5)] == [o(2), o(3), o(5), o(9), o(11)]
        family = FuncFamily.ladder_disagreement(ladders, W2)
        assert family.value(OMEGA, w2) == 4

    def test_non_limit_arguments_give_zero(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        assert family.value(o(5), w2) == 0
        assert family.value(OMEGA, w2 + 1) == 0

    def test_walk_kind_counts_steps(self):
        family = FuncFamily.walk(LadderSystem.canonical(), W2)
        assert family.value(o(5), parse_ordinal("w+1")) == 2

    def test_range_checks(self):
        family = FuncFamily.walk(LadderSystem.canonical(), W2)
        with pytest.raises(DomainError):
            family.value(w2, OMEGA)
        with pytest.raises(DomainError):
            family.value(OMEGA, W2)

    def test_explicit_defaults_to_zero_off_table(self):
        family = FuncFamily.explicit({(o(0), o(3)): 5}, bound=OMEGA)
        assert family.value(o(0), o(3)) == 5
        assert family.value(o(1), o(3)) == 0

    def test_explicit_rejects_bad_tables(self):
        from fanlab import ValidationError

        with pytest.raises(ValidationError):
            FuncFamily.explicit({(1, 0): 2})
        with pytest.raises(ValidationError):
            FuncFamily.explicit({(0, 1): -1})
        with pytest.raises(ValidationError, match="'default'"):
            FuncFamily.explicit({(0, 1): 3}, default=-4)

    def test_explicit_refuses_integer_indices_below_an_ordinal_bound(self):
        with pytest.raises(ValidationError, match="integer indices"):
            FuncFamily.explicit({(0, 1): 3}, bound=OMEGA)
        with pytest.raises(ValidationError, match="integer indices"):
            FuncFamily.explicit({}, bound=OMEGA, indices=[0, 1, 2])
        assert FuncFamily.explicit({(0, 1): 3}).value(0, 1) == 3

    def test_json_round_trip(self):
        for family in (
            FuncFamily.walk(LadderSystem.canonical(), W2),
            FuncFamily.ladder_disagreement(LadderSystem.seeded(3), W3),
            FuncFamily.explicit({(o(1), o(4)): 2}, bound=OMEGA),
        ):
            again = FuncFamily.from_json(family.to_json())
            assert again.kind == family.kind
            assert again.value(o(1), o(4)) == family.value(o(1), o(4))

    def test_seeded_ladders_round_trip(self):
        ladders = LadderSystem.seeded(2)
        again = FuncFamily.from_json(FuncFamily.ladder_disagreement(ladders, W2).to_json())
        assert (again.ladders.kind, again.ladders.seed) == ("seeded", 2)
        assert [again.ladders.value(w2, n) for n in range(9)] == [
            ladders.value(w2, n) for n in range(9)
        ]

    @pytest.mark.parametrize(
        "data, problem",
        [
            ([1], "JSON object"),
            ({"kind": "walk", "bound": "w^(2)"}, "'ladders' object"),
            ({"kind": "ladder", "bound": "w^(2)", "ladders": "canonical"}, "'ladders' object"),
            ({"kind": "walk", "bound": 5, "ladders": {"kind": "canonical"}}, "'bound'"),
            ({"kind": "walk", "bound": "w^(2)", "ladders": {"kind": "seeded"}}, "'seed'"),
            ({"kind": "walk", "bound": "w", "ladders": {"kind": "explicit", "table": 5}},
             "unknown ladder kind 'explicit'"),
            ({"kind": "walk", "bound": "w", "ladders": {"kind": "explicit", "table": {"w": [1]}}},
             "unknown ladder kind 'explicit'"),
            ({"kind": "explicit", "indices": 3}, "'indices'"),
            ({"kind": "explicit", "indices": [0, None]}, "'indices'"),
            ({"kind": "explicit", "indices": [0, 1], "table": {"0": 1}}, "'table'"),
            ({"kind": "explicit", "indices": [0, 1], "table": [[0, 1]]}, "bad table row"),
            ({"kind": "explicit", "indices": [0, 1], "table": [[0, 5, 1]]}, "bad table row"),
            ({"kind": "explicit", "indices": [0, 1], "table": [[0, 1, "2"]]}, "bad table row"),
            ({"kind": "explicit", "indices": [0, 1], "default": "0"}, "'default'"),
            ({"kind": "explicit", "indices": [0, "w"], "table": [[0, 1, 2]]}, "not a mix"),
            ({"kind": "explicit", "indices": ["w", "w"]}, "index w is listed twice"),
        ],
    )
    def test_from_json_rejects_malformed_structure(self, data, problem):
        with pytest.raises(ValidationError, match=problem):
            FuncFamily.from_json(data)


class TestEmpiricalWitness:
    """The sample witness of a point below gamma: its label less h_gamma."""

    def test_empty_sample_gives_one(self):
        family = FuncFamily.explicit({}, indices=[o(1), o(7)])
        assert separation_labeling(family, o(7), {o(1)})[o(1)] == 1

    def test_equal_functions_give_one(self):
        family = FuncFamily.explicit(
            {(o(0), o(3)): 4, (o(0), o(7)): 4}, indices=[o(0), o(3), o(7)]
        )
        assert separation_labeling(family, o(7), {o(0), o(3)})[o(3)] == 1

    def test_deficiency_plus_one(self):
        family = FuncFamily.explicit(
            {(o(0), o(3)): 5, (o(0), o(7)): 2}, indices=[o(0), o(3), o(7)]
        )
        assert separation_labeling(family, o(7), {o(0), o(3)})[o(3)] == 4


class TestSeparationLabeling:
    def test_zero_family_labels_one(self):
        family = FuncFamily.explicit({}, indices=[o(0), o(1), o(2)])
        f = separation_labeling(family, o(2), {o(0), o(1), o(2)})
        assert f == {o(0): 1, o(1): 1, o(2): 0}

    def test_value_plus_witness(self):
        family = FuncFamily.explicit(
            {(o(0), o(2)): 3, (o(0), o(1)): 3}, indices=[o(0), o(1), o(2)]
        )
        f = separation_labeling(family, o(2), {o(0), o(1), o(2)})
        assert f[o(0)] == 4  # h_gamma + witness 1

    def test_walk_family_labeling_clears_every_pair(self):
        rng = random.Random(10)
        family = FuncFamily.walk(LadderSystem.canonical(), W2)
        for _ in range(20):
            sample = {random_ordinal(rng, W2) for _ in range(12)}
            gamma = max(sample)
            f = separation_labeling(family, gamma, sample)
            eligible = sorted(x for x in sample if x <= gamma)
            for i, a in enumerate(eligible):
                for b in eligible[i + 1 :]:
                    assert f[a] + f[b] > family.value(a, b)

    def test_points_beyond_gamma_get_zero(self):
        family = FuncFamily.explicit({}, indices=[o(0), o(5)])
        f = separation_labeling(family, o(2), {o(0), o(5)})
        assert f[o(5)] == 0


class TestClosures:
    def test_closures_are_closed_and_idempotent(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(5), W3)
        rng = random.Random(11)
        gamma = parse_ordinal("w^(2)*2")
        sample = close_below(family, gamma, {random_ordinal(rng, gamma) for _ in range(6)})
        assert close_below(family, gamma, sample) == sample

    def test_limits_bring_both_club_neighbours(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        # below w^(2) the club is 1, w+1, w*2+1, ...; w*2 and w sit between
        below = close_below(family, W2, {w2}, prefix_depth=1)
        assert below == {w2, OMEGA, w2 + 1, OMEGA + 1, o(0), o(1)}
        club = (o(3), o(9), OMEGA + 1, w2 + 1)
        avoiding = close_avoiding(family, {OMEGA}, club, set(), prefix_depth=1)
        assert avoiding == {OMEGA, o(0), o(9), OMEGA + 1}

    def test_points_must_lie_below_gamma(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        with pytest.raises(DomainError):
            close_below(family, w2, {w3})

    def test_gamma_must_not_pass_the_family_bound(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        assert close_below(family, W2, {o(1)})
        with pytest.raises(DomainError, match="above the family bound"):
            close_below(family, W3, {o(1)})

    def test_gamma_must_be_limit(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        with pytest.raises(DomainError):
            close_below(family, OMEGA + 1, {o(3)})

    def test_club_must_avoid_the_set(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        with pytest.raises(ClosureError):
            close_avoiding(family, {OMEGA}, (OMEGA, w2 + 1), {o(1)})

    def test_club_must_reach_above_all_limits(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        with pytest.raises(ClosureError):
            close_avoiding(family, {w3}, (o(1), o(2)), {o(1)})


class TestClubLookups:
    @given(st.lists(ordinals(), max_size=12), st.lists(ordinals(), min_size=1, max_size=4))
    def test_bisection_equals_a_linear_scan(self, values, probes):
        club = tuple(sorted(set(values)))
        for x in probes + list(club):
            above = next((v for v in club if v > x), None)
            if above is None:
                with pytest.raises(ClosureError, match="no element above"):
                    _club_split(club, x)
            else:
                below = max((v for v in club if v < x), default=None)
                assert _club_split(club, x) == (below, above)

    @given(st.integers(0, 2**32), st.integers(0, 40))
    def test_ladder_club_split_equals_the_explicit_one(self, seed, ladder_seed):
        # Both sources of clubs split a limit the same way when the explicit
        # club is the shifted ladder of gamma itself.
        rng = random.Random(seed)
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(ladder_seed), W3)
        beta = random_limit(rng, W3)
        top = family.ladders.first_index_at_least(W3, beta + 1)
        club = tuple(family.ladders.value(W3, n) + 1 for n in range(top + 1))
        assert _BoundEngine(family).club_split(W3, beta) == _club_split(club, beta)


class TestWeakBoundBelow:
    def test_degenerate_family_below_w2(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        gamma = w2
        bound = weak_bound_below(family, gamma, {OMEGA, o(3), o(12)})
        assert all(bound.g(x) == 1 for x in bound.certified_on)
        # every h_beta vanishes here; successor witnesses are 1 and the witness
        # at w picks up the club-escape index k=0 plus the recursive 1
        assert all(n in (1, 2) for n in bound.witness.values())
        assert bound.witness[OMEGA] == 2
        assert verify_witness(bound, family) == []

    def test_seeded_family_below_w3(self):
        rng = random.Random(12)
        for case in range(10):
            family = FuncFamily.ladder_disagreement(LadderSystem.seeded(case), W3)
            gamma = random_limit(rng, W3)
            while gamma <= OMEGA:
                gamma = random_limit(rng, W3)
            points = {random_ordinal(rng, gamma) for _ in range(10)}
            bound = weak_bound_below(family, gamma, points, prefix_depth=3)
            # the bound certifies on the closure of its points
            assert bound.certified_on == close_below(family, gamma, points, prefix_depth=3)
            assert verify_witness(bound, family) == []

    def test_explicit_family_uses_sample_witnesses(self):
        indices = [OMEGA, w2, w3, parse_ordinal("w*4")]
        table = {
            (a, b): i + 1
            for i, a in enumerate(indices)
            for b in indices[indices.index(a) + 1 :]
        }
        family = FuncFamily.explicit(table, bound=W2, indices=indices)
        gamma = parse_ordinal("w*5")
        bound = weak_bound_below(family, gamma, set(indices))
        for beta in bound.certified_on:
            for alpha in bound.certified_on:
                if alpha < beta:
                    assert bound.g(alpha) + bound.witness[beta] > family.value(alpha, beta)

    def test_rejects_non_limit_gamma(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        with pytest.raises(DomainError):
            weak_bound_below(family, w2 + 1, {o(1)})

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 60))
    def test_the_top_stage_is_the_engine_stage_at_gamma(self, seed, ladder_seed):
        # WeakBound through gamma's split is the engine's limit stage at gamma,
        # for g and for the witness.
        rng = random.Random(seed)
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(ladder_seed), W3)
        gamma = random_limit(rng, W3)
        engine = _BoundEngine(family)
        g = WeakBound(_BoundEngine(family), partial(engine.club_split, gamma), gamma)
        for _ in range(6):
            # w is the only limit with no limit below it
            limit = gamma > OMEGA and rng.random() < 0.6
            x = random_limit(rng, gamma) if limit else random_ordinal(rng, gamma)
            assert g(x) == engine.g(gamma, x)
            assert g.witness(x) == engine.witness(gamma, x)

    def test_g_and_witness_refuse_points_outside_their_domain(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        below = weak_bound_below(family, w2, {o(1)}).g
        club = (o(3), OMEGA + 1)
        avoiding = weak_bound_avoiding(family, {OMEGA}, club, {o(1)}).g
        assert below(OMEGA) >= 1 and avoiding(OMEGA) >= 1
        for g, top in ((below, w2), (avoiding, OMEGA + 1)):
            for x, method in itertools.product((top, top + 1, W2), (g, g.witness)):
                with pytest.raises(DomainError, match="is not below"):
                    method(x)


class TestWeakBoundAvoiding:
    def test_empty_avoid_set_is_vacuous(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        club = tuple(o(n + 1) for n in range(10)) + (OMEGA + 1, w2 + 1)
        bound = weak_bound_avoiding(family, set(), club, {o(2), OMEGA})
        assert bound.witness == {}
        assert verify_witness(bound, family) == []

    def test_single_limit_below_w2(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        club = tuple(o(n + 1) for n in range(9)) + (OMEGA + 1, OMEGA + 5, w2 + 1)
        points = {o(2), o(7), OMEGA, OMEGA + 3}
        bound = weak_bound_avoiding(family, {OMEGA}, club, points)
        assert verify_witness(bound, family) == []
        # the last club point below w is 9, so the ladder of w first clears it
        # at k=10; the recursive witness is 1 and the final +1 gives 12
        assert bound.witness[OMEGA] == 12

    def test_seeded_avoid_sets_below_w3(self):
        rng = random.Random(13)
        for case in range(10):
            family = FuncFamily.ladder_disagreement(LadderSystem.seeded(100 + case), W3)
            avoid = {random_limit(rng, W2) for _ in range(5)}
            points = {random_ordinal(rng, W2) for _ in range(8)}
            ladders = family.ladders
            top = ladders.first_index_at_least(W3, max(points | avoid) + 1)
            club = tuple(ladders.value(W3, n) + 1 for n in range(top + 2))
            bound = weak_bound_avoiding(family, avoid, club, points, prefix_depth=3)
            closed = close_avoiding(family, avoid, club, points, prefix_depth=3)
            assert bound.certified_on == closed
            assert verify_witness(bound, family) == []
            smaller = {x for x in bound.certified_on if rng.random() < 0.6}
            assert verify_witness(bound, family, smaller) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 60))
    def test_witness_is_the_engine_limit_stage_of_the_bound(self, seed, ladder_seed):
        # With the club that `bound --avoid` derives from the family bound, the
        # explicit club is a prefix of the bound's own club, so every witness
        # is the recursion's witness at the bound.
        rng = random.Random(seed)
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(ladder_seed), W3)
        avoid = {random_limit(rng, W3) for _ in range(rng.randint(1, 4))}
        points = {random_ordinal(rng, W3) for _ in range(rng.randint(0, 6))}
        ladders = family.ladders
        top = ladders.first_index_at_least(W3, max(points | avoid) + 1)
        club = tuple(ladders.value(W3, n) + 1 for n in range(top + 2))
        bound = weak_bound_avoiding(family, avoid, club, points, prefix_depth=3)
        engine = _BoundEngine(family)
        assert bound.witness == {beta: engine.witness(W3, beta) for beta in avoid}
        assert verify_witness(bound, family) == []

    def test_rejects_overlapping_club(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W2)
        club = (OMEGA, w2 + 1)
        with pytest.raises(ClosureError):
            weak_bound_avoiding(family, {OMEGA}, club, {o(1)})


class TestVerifyWitness:
    def test_all_pairs_violated_for_zero_bound(self):
        family = FuncFamily.explicit({(o(0), o(1)): 1}, bound=OMEGA)

        class Zero:
            def __call__(self, x):
                return 0

        bound = BoundWitness(Zero(), {o(1): 0}, frozenset({o(0), o(1)}))
        assert verify_witness(bound, family) == [(o(0), o(1))]

    def test_larger_samples_are_reported_not_asserted(self):
        rng = random.Random(14)
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(77), W3)
        gamma = parse_ordinal("w^(2)*3")
        bound = weak_bound_below(family, gamma, {random_ordinal(rng, gamma) for _ in range(6)})
        bigger = set(bound.certified_on) | {random_ordinal(rng, gamma) for _ in range(30)}
        violations = verify_witness(bound, family, bigger)
        assert isinstance(violations, list)  # empirical: content not asserted


class TestBoundRecursion:
    def test_successor_stage_dominates(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(21), W3)
        rng = random.Random(15)
        for _ in range(30):
            gamma = random_ordinal(rng, W3)
            if gamma.is_zero:
                continue
            lo, hi = bound_function(family, gamma), bound_function(family, gamma + 1)
            for _ in range(5):
                x = random_ordinal(rng, gamma)
                assert hi(x) >= lo(x)

    def test_successor_stage_dominates_the_new_function(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(22), W3)
        rng = random.Random(16)
        for _ in range(30):
            beta = random_limit(rng, W2)
            g = bound_function(family, beta + 1)
            for _ in range(5):
                x = random_ordinal(rng, beta)
                assert g(x) >= family.value(x, beta)

    def test_long_successor_chains_need_no_recursion(self):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        gamma = parse_ordinal("w*2+5000")
        assert isinstance(bound_function(family, gamma)(parse_ordinal("w+1")), int)
        assert isinstance(_BoundEngine(family).witness(gamma, OMEGA), int)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 40))
    def test_stages_equal_the_recursive_definition(self, seed, ladder_seed):
        # One engine answers every query, so later queries also read stages
        # that earlier ones memoised.
        rng = random.Random(seed)
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(ladder_seed), W3)
        engine = _BoundEngine(family)
        for _ in range(6):
            gamma = random_ordinal(rng, W3) + 1
            # limits below gamma are where the club jumps and the witnesses grow
            limit = gamma > OMEGA + 1 and rng.random() < 0.7
            x = random_limit(rng, gamma) if limit else random_ordinal(rng, gamma)
            assert (engine.g(gamma, x), engine.witness(gamma, x)) == _reference_stage(
                family, gamma, x
            )

    def test_stage_budget(self, monkeypatch):
        family = FuncFamily.ladder_disagreement(LadderSystem.canonical(), W3)
        with pytest.raises(GuardExceeded, match="runs past"):
            bound_function(family, parse_ordinal("w*2+100000"))(OMEGA)
        monkeypatch.setattr(families, "MAX_STAGES", 10)
        engine = _BoundEngine(family)
        assert engine.g(parse_ordinal("w+9"), o(3)) == 1  # ten stages: a full budget
        assert engine.g(parse_ordinal("w+9"), o(3)) == 1  # read from the memo
        with pytest.raises(GuardExceeded):
            engine.g(parse_ordinal("w+1"), o(4))  # memoised stages count too
        with pytest.raises(GuardExceeded, match="sample closure grows past 10 terms"):
            close_below(family, W2, {parse_ordinal("w*5")}, prefix_depth=2)


def _reference_stage(family, gamma, x):
    """(g_gamma(x), witness) by the recursion as defined, with no memo."""
    ladders = family.ladders
    if gamma.is_successor:
        xi = gamma.predecessor()
        if x == xi:
            return 1, 1
        g, n = _reference_stage(family, xi, x)
        return max(g, family.value(x, xi)), n
    if not x.is_limit:
        return 1, 1
    # the club of gamma is its ladder shifted by one; jump to the first point above x
    k = ladders.first_index_at_least(gamma, x)
    g, n = _reference_stage(family, ladders.value(gamma, k) + 1, x)
    escape = 0
    if k:
        lower = ladders.value(gamma, k - 1) + 1
        escape = next(i for i in itertools.count() if ladders.value(x, i) > lower)
    return g, n + escape + 1


class TestDisagreement:
    def test_symmetric(self):
        ladders = LadderSystem.seeded(31)
        rng = random.Random(17)
        for _ in range(50):
            a, b = random_limit(rng, W3), random_limit(rng, W3)
            if a == b:
                continue
            assert disagreement_index(ladders, a, b) == disagreement_index(ladders, b, a)

    def test_shared_prefix_forces_large_values(self):
        # Seed 1 gives w a prefix of 4 naturals from the pool and w*2 one of 5;
        # w's canonical part then starts at 7, the pool's fifth natural.
        ladders = LadderSystem.seeded(1)
        assert [ladders.value(OMEGA, n) for n in range(6)] == [o(v) for v in (2, 4, 5, 6, 7, 8)]
        assert [ladders.value(w2, n) for n in range(5)] == [o(v) for v in (2, 4, 5, 6, 7)]
        assert ladders.value(w2, 5) == OMEGA
        assert disagreement_index(ladders, OMEGA, w2) == 5
