import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlab import (
    OMEGA,
    ONE,
    ZERO,
    DomainError,
    LadderSystem,
    Ordinal,
    OrdinalParseError,
    canonical_ladder,
    first_limits,
    omega_power,
    parse_ordinal,
    random_limit,
    random_ordinal,
)
from fanlab.ordinals import _SEED_PREFIX_MAX, MAX_DIGITS, MAX_NESTING, _stable_rng, parse_index
from conftest import ordinals

o = Ordinal.from_int


def _recursive_compare(a: Ordinal, b: Ordinal) -> int:
    """Reference order: Cantor normal forms compared term by term, recursively."""
    for (e1, c1), (e2, c2) in zip(a, b):
        c = _recursive_compare(e1, e2)
        if c:
            return c
        if c1 != c2:
            return -1 if c1 < c2 else 1
    return (len(a) > len(b)) - (len(a) < len(b))


class TestLiterals:
    def test_canonical_printing_drops_unit_coefficients(self):
        assert str(parse_ordinal("w^(2)*3+w*1+5")) == "w^(2)*3+w+5"

    def test_zero(self):
        assert str(ZERO) == "0"
        assert parse_ordinal("0") == ZERO

    @pytest.mark.parametrize(
        "text",
        ["w", "w*2", "w^(2)", "w^(w)", "w^(w^(2)+1)*4+w^(3)+w*2+17", "42"],
    )
    def test_round_trip(self, text):
        assert str(parse_ordinal(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["", "w+w", "3+w", "w*0", "w^()", "w^(2", "w+0", "0+1", "w**2", "w^2", "x"],
    )
    def test_rejects_non_canonical_literals(self, text):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(text)

    def test_nesting_and_digit_limits(self):
        deepest = "w^(" * MAX_NESTING + "w" + ")" * MAX_NESTING
        longest = "w*" + "9" * MAX_DIGITS
        wide = "+".join(f"w^(w*{k})" for k in range(2 * MAX_NESTING, 1, -1))  # groups side by side
        for text in (deepest, longest, wide):
            assert str(parse_ordinal(text)) == text
        assert parse_index("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
        for text in ("w^(" + deepest + ")", longest + "9", "9" * 5000):
            with pytest.raises(OrdinalParseError):
                parse_ordinal(text)
        with pytest.raises(OrdinalParseError):
            parse_index("9" * (MAX_DIGITS + 1))

    @given(ordinals())
    def test_round_trip_generated(self, a):
        assert parse_ordinal(str(a)) == a


class TestOrder:
    def test_compare_examples(self):
        assert OMEGA.compare(OMEGA) == 0
        assert parse_ordinal("w^(2)").compare(parse_ordinal("w*5+3")) == 1
        assert parse_ordinal("w+1").compare(parse_ordinal("w*2")) == -1

    @given(ordinals(3), ordinals(3))
    def test_key_order_agrees_with_recursive_compare(self, a, b):
        for x, y in ((a, b), (a, parse_ordinal(str(a)))):
            ref = _recursive_compare(x, y)
            assert x.compare(y) == ref
            assert (x < y, x <= y, x == y, x != y, x >= y, x > y) == (
                ref < 0, ref <= 0, ref == 0, ref != 0, ref >= 0, ref > 0
            )
            if ref == 0:
                assert hash(x) == hash(y)

    @pytest.mark.parametrize("other", [2, 0, None])
    def test_order_against_a_non_ordinal_is_a_type_error(self, other):
        one = Ordinal.from_int(1)
        for compare in (
            lambda: one < other, lambda: one <= other, lambda: one > other,
            lambda: one >= other, lambda: other < one, lambda: other >= one,
        ):
            with pytest.raises(TypeError):
                compare()
        assert one != other and not one == other

    @given(ordinals(), ordinals(), ordinals())
    def test_total_order(self, a, b, c):
        assert a <= b or b <= a
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c

    @given(ordinals())
    def test_successor_is_strictly_bigger(self, a):
        assert a < a.successor()
        assert a.successor().predecessor() == a

    def test_add_naturals(self):
        assert OMEGA + 3 == parse_ordinal("w+3")
        assert (OMEGA + 3) + 2 == parse_ordinal("w+5")
        assert o(4) + 0 == o(4)
        with pytest.raises(DomainError):
            OMEGA + (-1)


class TestClassify:
    def test_examples(self):
        assert (ZERO.is_zero, ZERO.is_successor, ZERO.is_limit) == (True, False, False)
        succ = parse_ordinal("w*2+4")
        assert (succ.is_zero, succ.is_successor, succ.is_limit) == (False, True, False)
        assert succ.predecessor() == parse_ordinal("w*2+3")
        limit = parse_ordinal("w^(2)")
        assert (limit.is_zero, limit.is_successor, limit.is_limit) == (False, False, True)

    def test_predecessor_of_limit_fails(self):
        with pytest.raises(DomainError):
            OMEGA.predecessor()

    @given(ordinals())
    def test_trichotomy(self, a):
        kinds = [a.is_zero, a.is_successor, a.is_limit]
        assert kinds.count(True) == 1


class TestCanonicalLadder:
    def test_examples(self):
        assert canonical_ladder(OMEGA, 3) == o(3)
        assert canonical_ladder(parse_ordinal("w^(2)"), 2) == parse_ordinal("w*2")
        assert canonical_ladder(parse_ordinal("w*2"), 5) == parse_ordinal("w+5")

    def test_limit_exponent_rule(self):
        # (w^w)[n] = w^(w[n]) = w^n
        assert canonical_ladder(parse_ordinal("w^(w)"), 3) == parse_ordinal("w^(3)")

    def test_rejects_non_limits(self):
        with pytest.raises(DomainError):
            canonical_ladder(o(5), 1)
        with pytest.raises(DomainError):
            canonical_ladder(ZERO, 0)


@pytest.fixture(params=["canonical", "seeded"])
def system(request):
    if request.param == "canonical":
        return LadderSystem.canonical()
    return LadderSystem.seeded(99)


class TestLadderSystems:
    def test_strictly_increasing_below_alpha(self, system):
        rng = random.Random(5)
        bound = parse_ordinal("w^(w)")
        for _ in range(200):
            alpha = random_limit(rng, bound)
            n = rng.randint(0, 12)
            assert system.value(alpha, n) < system.value(alpha, n + 1) < alpha

    def test_deterministic(self, system):
        twin = (
            LadderSystem.canonical()
            if system.kind == "canonical"
            else LadderSystem.seeded(99)
        )
        rng = random.Random(6)
        for _ in range(100):
            alpha = random_limit(rng, parse_ordinal("w^(3)"))
            n = rng.randint(0, 20)
            assert system.value(alpha, n) == twin.value(alpha, n)

    def test_cofinal_with_small_witness(self, system):
        rng = random.Random(7)
        for _ in range(100):
            alpha = random_limit(rng, parse_ordinal("w^(w)"))
            beta = random_ordinal(rng, alpha)
            n = system.first_index_at_least(alpha, beta + 1)
            assert n <= 1 << 16
            assert system.value(alpha, n) > beta
            if n:
                assert system.value(alpha, n - 1) <= beta

    def test_seeded_systems_share_prefixes(self):
        system = LadderSystem.seeded(1)
        limits = first_limits(parse_ordinal("w^(2)"), 30)
        shared = 0
        for a, b in zip(limits, limits[1:]):
            if system.value(a, 0) == system.value(b, 0):
                shared += 1
        assert shared > 0  # the point of seeding: nondegenerate agreement

    def test_explicit_tables(self):
        table = {OMEGA: (o(1), o(3), o(8))}
        system = LadderSystem.explicit(table)
        assert system.value(OMEGA, 1) == o(3)
        with pytest.raises(DomainError):
            system.value(OMEGA, 3)
        with pytest.raises(DomainError):
            system.value(parse_ordinal("w*2"), 0)

    def test_explicit_tables_validated(self):
        from fanlab import ValidationError

        with pytest.raises(ValidationError):
            LadderSystem.explicit({OMEGA: (o(3), o(2))})
        with pytest.raises(ValidationError):
            LadderSystem.explicit({OMEGA: (OMEGA,)})

    def test_json_round_trip(self, system):
        again = LadderSystem.from_json(system.to_json())
        assert again.kind == system.kind
        assert again.value(OMEGA, 4) == system.value(OMEGA, 4)


# -- first_index_at_least against search -------------------------------------

LADDER_BOUNDS = [parse_ordinal(t) for t in ("w^(2)", "w^(3)*2", "w^(w)", "w^(w^(2))")]


def gallop(system, alpha, target):
    """The galloping-then-bisection search that first_index_at_least replaced.

    Like the original it gives up once its probe passes 2^16.
    """
    if system.value(alpha, 0) >= target:
        return 0
    lo, hi = 0, 1
    while system.value(alpha, hi) < target:
        lo, hi = hi, hi * 2
        if hi > 1 << 16:
            raise DomainError(f"no ladder entry of {alpha} reaches {target} within 2^16 steps")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if system.value(alpha, mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def linear_first(system, alpha, target):
    """Least n with value(alpha, n) >= target by scanning; None if a table runs out."""
    for n in range(1 << 12):
        try:
            if system.value(alpha, n) >= target:
                return n
        except DomainError:
            return None
    raise AssertionError("scan limit reached")


def outcome(f):
    try:
        return f()
    except DomainError as exc:
        return ("DomainError", str(exc))


@st.composite
def ladder_cases(draw):
    """(system, alpha, target) with the target below alpha, at or above it, or natural."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    alpha = random_limit(rng, draw(st.sampled_from(LADDER_BOUNDS)))
    mode = draw(st.sampled_from(["below", "below", "natural", "alpha", "above"]))
    if mode == "below":
        target = random_ordinal(rng, alpha) + draw(st.integers(0, 40))
    elif mode == "natural":
        target = o(draw(st.integers(0, 40)))
    elif mode == "alpha":
        target = alpha
    else:
        target = alpha + draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["canonical", "seeded", "explicit"]))
    if kind == "canonical":
        system = LadderSystem.canonical()
    elif kind == "seeded":
        system = LadderSystem.seeded(draw(st.integers(0, 60)))
    else:
        values = sorted({random_ordinal(rng, alpha) for _ in range(draw(st.integers(1, 7)))})
        system = LadderSystem.explicit({alpha: tuple(values)})
    return system, alpha, target


class TestFirstIndexAtLeast:
    @settings(max_examples=300, deadline=None)
    @given(ladder_cases())
    def test_equals_a_linear_scan(self, case):
        system, alpha, target = case
        expected = linear_first(system, alpha, target) if target < alpha else None
        if expected is None:
            with pytest.raises(DomainError):
                system.first_index_at_least(alpha, target)
        else:
            assert system.first_index_at_least(alpha, target) == expected

    @settings(max_examples=300, deadline=None)
    @given(ladder_cases())
    def test_equals_the_galloping_search(self, case):
        system, alpha, target = case
        new = outcome(lambda: system.first_index_at_least(alpha, target))
        old = outcome(lambda: gallop(system, alpha, target))
        if isinstance(old, int):
            assert new == old
        else:
            # The search also failed at or above alpha, and on an explicit
            # table when its probes overshot the table.
            assert isinstance(new, tuple) or (
                system.kind == "explicit" and new == linear_first(system, alpha, target)
            )

    @pytest.mark.parametrize("kind", ["canonical", "seeded"])
    def test_large_answers_against_canonical_ladder(self, kind):
        # Answers past the 2^16 reach of the old search are given, not refused.
        system = LadderSystem.canonical() if kind == "canonical" else LadderSystem.seeded(4)
        for alpha in map(parse_ordinal, ("w*2", "w^(2)", "w^(3)+w^(2)")):
            for index in ((1 << 16) + 1, 100000, 10**9):
                target = canonical_ladder(alpha, index)
                n = system.first_index_at_least(alpha, target)
                assert system.value(alpha, n) == target > system.value(alpha, n - 1)
                if kind == "canonical":
                    assert n == index
                assert system.first_index_at_least(alpha, target + 1) == n + 1
            with pytest.raises(DomainError):
                system.first_index_at_least(alpha, alpha)

    def test_explicit_table_is_bisected_to_its_end(self):
        table = {OMEGA: (o(1), o(3), o(8), o(9))}
        system = LadderSystem.explicit(table)
        assert system.first_index_at_least(OMEGA, o(9)) == 3
        with pytest.raises(DomainError, match="no entry 4"):
            system.first_index_at_least(OMEGA, o(10))
        with pytest.raises(DomainError, match="no entry 0"):
            system.first_index_at_least(parse_ordinal("w*2"), o(1))


def rederived_value(seed, alpha, n):
    """A seeded ladder value derived from the seed alone, with no memo."""
    rng = _stable_rng(seed, "ladder-prefix-pool")
    pool = [rng.randrange(3)]
    for _ in range(_SEED_PREFIX_MAX - 1):
        pool.append(pool[-1] + 1 + rng.randrange(4))
    p = _stable_rng(seed, "prefix-len", alpha).randint(0, _SEED_PREFIX_MAX)
    if n < p:
        return o(pool[n])
    shift = 0
    if p:
        while canonical_ladder(alpha, shift) <= o(pool[p - 1]):
            shift += 1
    return canonical_ladder(alpha, shift + (n - p))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 1000))
def test_memoized_seeded_value_equals_rederivation(rng_seed, seed):
    rng = random.Random(rng_seed)
    system = LadderSystem.seeded(seed)
    alpha = random_limit(rng, parse_ordinal("w^(w^(2))"))
    for _ in range(2):  # the first pass fills the memo, the second reads it
        for n in range(12):
            assert system.value(alpha, n) == rederived_value(seed, alpha, n)


class TestSampling:
    def test_random_ordinal_stays_below_bound(self):
        rng = random.Random(8)
        bound = parse_ordinal("w^(3)*2+w")
        for _ in range(500):
            assert random_ordinal(rng, bound) < bound

    def test_first_limits(self):
        assert first_limits(parse_ordinal("w^(2)"), 3) == [
            OMEGA,
            parse_ordinal("w*2"),
            parse_ordinal("w*3"),
        ]
        assert first_limits(parse_ordinal("w*3"), 10) == [OMEGA, parse_ordinal("w*2")]

    def test_omega_power(self):
        assert omega_power(ONE, 2) == parse_ordinal("w*2")
        assert omega_power(ZERO, 7) == o(7)
        assert omega_power(o(2)) == parse_ordinal("w^(2)")


@settings(max_examples=50)
@given(ordinals(), st.integers(0, 10))
def test_hash_consistency(a, n):
    b = parse_ordinal(str(a))
    assert hash(a) == hash(b) and a == b
