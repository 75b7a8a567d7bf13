import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import (
    OMEGA,
    CSequence,
    DomainError,
    GuardExceeded,
    LadderSystem,
    Ordinal,
    parse_ordinal,
    random_ordinal,
)
from fanlab.walks import _MAX_WALK_STEPS

o = Ordinal.from_int
W2 = parse_ordinal("w*2")


@pytest.fixture
def cs():
    return CSequence(LadderSystem.canonical())


class TestStep:
    def test_examples(self, cs):
        assert cs.step(OMEGA, W2) == OMEGA
        assert cs.step(o(5), OMEGA) == o(5)
        assert cs.step(o(5), parse_ordinal("w+1")) == OMEGA

    def test_bounds(self, cs):
        rng = random.Random(0)
        bound = parse_ordinal("w^(w)")
        for _ in range(300):
            x, y = random_ordinal(rng, bound), random_ordinal(rng, bound)
            if x == y:
                continue
            alpha, beta = (x, y) if x < y else (y, x)
            step = cs.step(alpha, beta)
            assert alpha <= step < beta

    def test_rejects_bad_order(self, cs):
        with pytest.raises(DomainError):
            cs.step(W2, OMEGA)
        with pytest.raises(DomainError):
            cs.step(OMEGA, OMEGA)


class TestWalk:
    def test_examples(self, cs):
        assert cs.walk(OMEGA, OMEGA).steps == (OMEGA,)
        assert cs.rho2(OMEGA, OMEGA) == 0
        assert cs.walk(OMEGA, W2).steps == (W2, OMEGA)
        assert cs.rho2(OMEGA, W2) == 1
        assert cs.walk(o(5), parse_ordinal("w+1")).steps == (
            parse_ordinal("w+1"),
            OMEGA,
            o(5),
        )
        assert cs.rho2(o(5), parse_ordinal("w+1")) == 2

    def test_rejects_bad_order(self, cs):
        with pytest.raises(DomainError):
            cs.walk(W2, OMEGA)
        with pytest.raises(DomainError):
            cs.rho2(W2, OMEGA)

    def test_trace_shape(self, cs):
        rng = random.Random(1)
        bound = parse_ordinal("w^(w)")
        for _ in range(500):
            x, y = random_ordinal(rng, bound), random_ordinal(rng, bound)
            alpha, beta = (x, y) if x <= y else (y, x)
            trace = cs.walk(alpha, beta).steps
            assert trace[0] == beta and trace[-1] == alpha
            assert all(a > b for a, b in zip(trace, trace[1:]))
            assert len(trace) < 10_000

    def test_recursion_identity_and_positivity(self, cs):
        rng = random.Random(2)
        bound = parse_ordinal("w^(w)")
        for _ in range(500):
            x, y = random_ordinal(rng, bound), random_ordinal(rng, bound)
            if x == y:
                continue
            alpha, beta = (x, y) if x < y else (y, x)
            assert cs.rho2(alpha, beta) >= 1
            assert cs.rho2(alpha, beta) == cs.rho2(alpha, cs.step(alpha, beta)) + 1

    def test_deterministic_across_instances(self):
        rng = random.Random(3)
        first = CSequence(LadderSystem.canonical())
        second = CSequence(LadderSystem.canonical())
        bound = parse_ordinal("w^(3)")
        for _ in range(100):
            x, y = random_ordinal(rng, bound), random_ordinal(rng, bound)
            alpha, beta = (x, y) if x <= y else (y, x)
            assert first.walk(alpha, beta) == second.walk(alpha, beta)

    def test_seeded_ladders_also_walk(self):
        cs = CSequence(LadderSystem.seeded(11))
        rng = random.Random(4)
        bound = parse_ordinal("w^(3)")
        for _ in range(200):
            x, y = random_ordinal(rng, bound), random_ordinal(rng, bound)
            alpha, beta = (x, y) if x <= y else (y, x)
            trace = cs.walk(alpha, beta).steps
            assert trace[0] == beta and trace[-1] == alpha


@st.composite
def walk_cases(draw):
    """A ladder system and a pair alpha <= beta, often with a long successor tail."""
    seed = draw(st.sampled_from([None, 3, 11, 29]))
    ladders = LadderSystem.canonical() if seed is None else LadderSystem.seeded(seed)
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = parse_ordinal(draw(st.sampled_from(["w^(3)", "w^(w)", "w^(w^(2))+w*3"])))
    x = random_ordinal(rng, bound) + draw(st.integers(0, 60))
    y = random_ordinal(rng, bound) + draw(st.integers(0, 60))
    return CSequence(ladders), min(x, y), max(x, y)


class TestRho2:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_counts_the_steps_of_the_walk(self, case):
        cs, alpha, beta = case
        assert cs.rho2(alpha, beta) == cs.walk(alpha, beta).step_count

    @pytest.mark.parametrize("n", [1, 200_000, 10**9])
    def test_long_successor_walks_are_counted(self, cs, n):
        assert cs.rho2(OMEGA, OMEGA + n) == n
        assert cs.rho2(o(3), W2 + n) == n + 2

    @pytest.mark.parametrize("kind", ["canonical", "seeded"])
    def test_step_to_a_far_ladder_entry(self, kind):
        # w*100000 is entry 100000 of the ladder of w^(2) (shifted past a seeded
        # prefix), beyond the 2^16 reach of the old ladder search.
        cs = CSequence(LadderSystem.canonical() if kind == "canonical" else LadderSystem.seeded(3))
        alpha, beta = parse_ordinal("w*100000"), parse_ordinal("w^(2)")
        assert cs.rho2(alpha, beta) == cs.walk(alpha, beta).step_count == 1

    def test_limit_steps_are_guarded(self, cs):
        # w*(k + 1) walks down to w through w*k, ..., w*2 in k limit steps
        k = _MAX_WALK_STEPS
        assert cs.rho2(OMEGA, parse_ordinal(f"w*{k + 1}")) == k
        with pytest.raises(GuardExceeded, match="limit steps"):
            cs.rho2(OMEGA, parse_ordinal(f"w*{k + 2}"))

    def test_walk_trace_stays_guarded(self, cs):
        with pytest.raises(DomainError, match="step guard"):
            cs.walk(OMEGA, OMEGA + 200_000)
