"""Seeded property suite: every structural claim the package makes, rechecked.

Each check returns a report with the number of cases run and the failures it
found (empty on success).  The acceptance tests and the CLI `verify`
subcommand both run these; all randomness flows from one seed so a failing
configuration can be replayed exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import spaces
from .cdw import CdwSet, HFamily, downward_close, explicit_hfamily, extract_from_space, sum_threshold, sum_threshold_family
from .errors import DomainError
from .families import (
    FuncFamily,
    bound_function,
    derived_club,
    disagreement_index,
    separation_labeling,
    verify_witness,
    weak_bound_avoiding,
    weak_bound_below,
)
from .ordinals import (
    OMEGA,
    LadderSystem,
    Ordinal,
    first_limits,
    omega_power,
    parse_ordinal,
    random_limit,
    random_ordinal,
)
from .separation import (
    check_separation,
    exists_separation_capped,
    is_separation,
    min_cap,
    min_sum_labeling,
    solve_separation,
)
from .walks import CSequence

W2 = parse_ordinal("w^(2)")
W3 = parse_ordinal("w^(3)")
W_OMEGA = parse_ordinal("w^(w)")


@dataclass
class CheckReport:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" ({len(self.failures)} failures, first: {self.failures[0]})"
        return f"{status} {self.name}: {self.cases} cases in {self.seconds:.2f}s{extra}"


def _timed(check):
    def wrapper(*args, **kwargs) -> CheckReport:
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.seconds = time.perf_counter() - start
        del report.failures[20:]  # keep reports small
        return report

    return wrapper


# -- random instance helpers -------------------------------------------------


def random_cdw_pairs(rng: random.Random, coord_max: int = 15, max_points: int = 8):
    count = rng.randint(0, max_points)
    return [(rng.randint(0, coord_max), rng.randint(0, coord_max)) for _ in range(count)]


def random_hfamily(rng: random.Random, size: int, coord_max: int = 6, density: float = 0.7) -> HFamily:
    indices = list(range(size))
    entries = {}
    for i in indices:
        for j in indices[i + 1 :]:
            if rng.random() < density:
                pairs = random_cdw_pairs(rng, coord_max, max_points=4)
                if pairs:
                    entries[(i, j)] = pairs
    return explicit_hfamily(indices, entries)


def random_labeling(rng: random.Random, A, cap: int) -> dict:
    return {a: rng.randint(0, cap) for a in A}


# -- ordinal core -------------------------------------------------------------


@_timed
def check_ordinal_roundtrip(seed: int, cases: int = 10_000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("ordinal literal round-trip", cases)
    deep = omega_power(omega_power(Ordinal.from_int(2)))
    for i in range(cases):
        a = random_ordinal(rng, W_OMEGA if i % 2 else deep)
        if parse_ordinal(str(a)) != a:
            report.failures.append(str(a))
    return report


@_timed
def check_ordinal_order(seed: int, cases: int = 10_000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("comparison is a total order", cases)
    for _ in range(cases):
        a, b, c = (random_ordinal(rng, W_OMEGA) for _ in range(3))
        if a <= b and b <= a and a != b:
            report.failures.append(f"antisymmetry: {a}, {b}")
        if a <= b and b <= c and not a <= c:
            report.failures.append(f"transitivity: {a}, {b}, {c}")
        if not (a <= b or b <= a):
            report.failures.append(f"totality: {a}, {b}")
    return report


@_timed
def check_ladder_monotone(seed: int, cases: int = 1000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("ladders increase strictly below their ordinal", cases)
    systems = [LadderSystem.canonical(), LadderSystem.seeded(seed)]
    for _ in range(cases):
        alpha = random_limit(rng, W_OMEGA)
        n = rng.randint(0, 20)
        for system in systems:
            v1, v2 = system.value(alpha, n), system.value(alpha, n + 1)
            if not (v1 < v2 < alpha):
                report.failures.append(f"{system.kind} ladder at {alpha}, n={n}")
    return report


@_timed
def check_ladder_cofinal(seed: int, cases: int = 300) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("ladders are cofinal with small witnesses", cases)
    systems = [LadderSystem.canonical(), LadderSystem.seeded(seed)]
    for _ in range(cases):
        alpha = random_limit(rng, W_OMEGA)
        beta = random_ordinal(rng, alpha)
        for system in systems:
            try:
                n = system.first_index_at_least(alpha, beta + 1)
            except DomainError:
                report.failures.append(f"{system.kind}: no witness for {beta} < {alpha}")
                continue
            if not system.value(alpha, n) > beta:
                report.failures.append(f"{system.kind}: bad witness at {alpha}, {beta}")
    return report


# -- walks --------------------------------------------------------------------


@_timed
def check_walks(seed: int, cases: int = 10_000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("walk termination, recursion identity, positivity", cases)
    cs = CSequence(LadderSystem.canonical())
    for _ in range(cases):
        x, y = random_ordinal(rng, W_OMEGA), random_ordinal(rng, W_OMEGA)
        alpha, beta = (x, y) if x <= y else (y, x)
        trace = cs.walk(alpha, beta)
        if cs.rho2(alpha, beta) != trace.step_count:
            report.failures.append(f"rho2 differs from the walk: {alpha} to {beta}")
        if trace.step_count >= 10_000:
            report.failures.append(f"walk too long: {alpha} to {beta}")
        if alpha == beta:
            if trace.step_count != 0:
                report.failures.append(f"nonzero walk at {alpha}")
            continue
        if trace.step_count < 1:
            report.failures.append(f"positivity: {alpha} < {beta}")
        mid = cs.step(alpha, beta)
        if cs.rho2(alpha, beta) != cs.rho2(alpha, mid) + 1:
            report.failures.append(f"recursion identity: {alpha}, {beta}")
    return report


# -- downward-closed sets ------------------------------------------------------


def _brute_maximal(points) -> set:
    points = set(points)
    return {
        p
        for p in points
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in points)
    }


@_timed
def check_staircases(seed: int, cases: int = 10_000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("staircase closure: idempotent, extensive, minimal antichain", cases)
    for _ in range(cases):
        pairs = random_cdw_pairs(rng)
        closed = downward_close(pairs)
        if set(closed.staircase) != _brute_maximal(pairs):
            report.failures.append(f"antichain mismatch for {pairs}")
            continue
        if any(p not in closed for p in pairs):
            report.failures.append(f"not extensive for {pairs}")
        if downward_close(closed.points()) != closed:
            report.failures.append(f"not idempotent for {pairs}")
        top_n = closed.max_n() + 1
        top_m = closed.max_m() + 1
        for n in range(top_n + 1):
            for m in range(top_m + 1):
                direct = any(n <= a and m <= b for a, b in pairs)
                if ((n, m) in closed) != direct:
                    report.failures.append(f"membership mismatch at {(n, m)} for {pairs}")
                    break
            else:
                continue
            break
    return report


@_timed
def check_constant_diagonal(h_max: int = 10, n_max: int = 10) -> CheckReport:
    report = CheckReport("constant labels vs. sum thresholds", 0)
    for h in range(h_max + 1):
        family = FuncFamily.explicit({(0, 1): h})
        cdw = sum_threshold(family, 0, 1)
        for n in range(n_max + 1):
            report.cases += 1
            if ((n, n) in cdw) != (2 * n <= h):
                report.failures.append(f"h={h}, n={n}")
            hfam = sum_threshold_family(family, [0, 1])
            blocked = not is_separation(hfam, [0, 1], {0: n, 1: n})
            if blocked != (h >= 2 * n):
                report.failures.append(f"blocked mismatch h={h}, n={n}")
    return report


# -- separation engine ---------------------------------------------------------


@_timed
def check_oracle_equivalence(seed: int, cases: int = 500) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("solver and min_cap agree with the brute-force oracle", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 5))
        cap = rng.randint(0, 6)
        expected = exists_separation_capped(h, h.indices, cap)
        got = solve_separation(h, h.indices, cap)
        if expected.status != got.status:
            report.failures.append(f"status differs: {h.to_json()}, cap={cap}")
        elif expected.separated and expected.witness != got.witness:
            report.failures.append(f"least witness differs: {h.to_json()}, cap={cap}")
        elif not got.separated and got.pair != next(
            (pair for pair in h.pairs() if (cap, cap) in h.get(*pair)), None
        ):
            report.failures.append(f"blocking pair {got.pair}: {h.to_json()}, cap={cap}")
        if (cap >= min_cap(h, h.indices)) != expected.separated:
            report.failures.append(f"min_cap disagrees at cap={cap}: {h.to_json()}")
    return report


@_timed
def check_separation_monotone(seed: int, cases: int = 200) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("monotonicity in cap, subset, and pointwise domination", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 5))
        cap = rng.randint(0, 5)
        result = solve_separation(h, h.indices, cap)
        if result.separated:
            if not solve_separation(h, h.indices, cap + 1).separated:
                report.failures.append(f"cap monotonicity at {cap}: {h.to_json()}")
            bigger = {a: v + rng.randint(0, 3) for a, v in result.witness.items()}
            if not is_separation(h, h.indices, bigger):
                report.failures.append(f"domination closure: {h.to_json()}")
        subset = [a for a in h.indices if rng.random() < 0.6]
        if min_cap(h, subset) > min_cap(h, h.indices):
            report.failures.append(f"subset monotonicity: {h.to_json()}")
    return report


@_timed
def check_exact_quantities() -> CheckReport:
    """The pinned small instances, each confirmed against the oracle."""
    report = CheckReport("exact small-instance quantities", 3)
    single = explicit_hfamily([0, 1], {(0, 1): [(0, 0)]})
    if min_cap(single, [0, 1]) != 1 or not exists_separation_capped(single, [0, 1], 1).separated \
            or exists_separation_capped(single, [0, 1], 0).separated:
        report.failures.append("single-pair family should have min_cap 1")

    triangle_family = FuncFamily.explicit({(0, 1): 3, (0, 2): 3, (1, 2): 3})
    triangle = sum_threshold_family(triangle_family, [0, 1, 2])
    ms = min_sum_labeling(triangle, [0, 1, 2])
    oracle_cap2 = exists_separation_capped(triangle, [0, 1, 2], 2)
    if min_cap(triangle, [0, 1, 2]) != 2 or not oracle_cap2.separated \
            or exists_separation_capped(triangle, [0, 1, 2], 1).separated:
        report.failures.append("triangle with threshold 3 should have min_cap 2")
    if ms.total != 6 or not ms.exact or not is_separation(triangle, [0, 1, 2], ms.labeling):
        report.failures.append("triangle with threshold 3 should have min_sum 6")

    pair = triangle.restrict([0, 1])
    probe1 = spaces.probe_fan_closure(pair, [0, 1], 1)
    probe2 = spaces.probe_fan_closure(pair, [0, 1], 2)
    space = spaces.build_space(pair, [0, 1])
    if not probe1.adversary_wins or exists_separation_capped(pair, [0, 1], 1).separated:
        report.failures.append("threshold-3 pair should block every cap-1 labeling")
    if probe2.adversary_wins or not spaces.space_separation_check(space, [0, 1], probe2.escape):
        report.failures.append("threshold-3 pair should have a cap-2 escape")
    return report


# -- spaces ---------------------------------------------------------------------


@_timed
def check_correspondence(seed: int, cases: int = 1000) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("space disjointness matches labeling separation", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 5))
        space = spaces.build_space(h)
        subset = [a for a in h.indices if rng.random() < 0.7]
        f = random_labeling(rng, subset, 7)
        if spaces.space_separation_check(space, subset, f) != is_separation(h, subset, f):
            report.failures.append(f"{h.to_json()}, A'={subset}, f={f}")
    return report


@_timed
def check_extraction_roundtrip(seed: int, cases: int = 200) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("intersection tables recover the generating family", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 4), coord_max=5)
        space = spaces.build_space(h)
        depth = 2 + max((cdw.max_n() for _, cdw in _all_entries(h)), default=0)
        depth = max(depth, 2 + max((cdw.max_m() for _, cdw in _all_entries(h)), default=0))
        extracted = extract_from_space(spaces.tabulate_intersections(space, depth))
        for a, b in h.pairs():
            if extracted.family.get(a, b) != h.get(a, b):
                report.failures.append(f"pair ({a}, {b}) of {h.to_json()}")
                break
    return report


def _all_entries(h: HFamily):
    for a, b in h.pairs():
        yield (a, b), h.get(a, b)


@_timed
def check_space_bases(seed: int, cases: int = 150) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("neighborhood bases decrease and index points stay apart", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 4), coord_max=5)
        space = spaces.build_space(h)
        for gamma in space.indices:
            for k in range(4):
                if not space.neighborhood(gamma, k + 1) <= space.neighborhood(gamma, k):
                    report.failures.append(f"base not decreasing at {gamma}, k={k}")
            for other in space.indices:
                if other != gamma and ("idx", other) in space.neighborhood(gamma, 0):
                    report.failures.append(f"{other} inside a neighborhood of {gamma}")
    return report


@_timed
def check_clopen(seed: int = 0) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("basic neighborhoods are clopen at every small depth", 0)
    for _ in range(25):
        size = rng.randint(2, 4)
        table = {
            (i, j): rng.randint(0, 4) for i in range(size) for j in range(i + 1, size)
        }
        h = sum_threshold_family(FuncFamily.explicit(table), range(size))
        space = spaces.build_space(h)
        for gamma in space.indices:
            for k in range(6):
                report.cases += 1
                if not spaces.clopen_check(space, gamma, k):
                    report.failures.append(f"gamma={gamma}, k={k}, table={table}")
    return report


@_timed
def check_export_roundtrip(seed: int, cases: int = 100) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("space exports parse back to an identical space", cases)
    for _ in range(cases):
        h = random_hfamily(rng, rng.randint(2, 4), coord_max=4)
        space = spaces.build_space(h)
        if spaces.space_from_json(spaces.space_to_json(space)) != space:
            report.failures.append(f"{h.to_json()}")
    return report


# -- families and weak bounds ----------------------------------------------------


@_timed
def check_separation_labeling(seed: int, cases: int = 100) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("witness labelings separate every sampled pair", cases)
    family = FuncFamily.walk(LadderSystem.canonical(), W3)
    for _ in range(cases):
        sample = {random_ordinal(rng, W3) for _ in range(rng.randint(2, 15))}
        gamma = rng.choice(sorted(sample))
        labeling = separation_labeling(family, gamma, sample)
        eligible = sorted(x for x in sample | {gamma} if x <= gamma)
        subset = sorted({rng.choice(eligible) for _ in range(rng.randint(1, len(eligible)))})
        if len(subset) < 2:
            subset = eligible
        h = sum_threshold_family(family, subset)
        violation = check_separation(h, subset, labeling)
        if violation is not None:
            report.failures.append(f"gamma={gamma}, pair={violation}")
    return report


@_timed
def check_disagreement_symmetry(seed: int, cases: int = 200) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("disagreement indices are symmetric and respect prefixes", cases)
    ladders = LadderSystem.seeded(seed)
    for _ in range(cases):
        alpha = random_limit(rng, W3)
        beta = random_limit(rng, W3)
        if alpha == beta:
            continue
        forward = disagreement_index(ladders, alpha, beta)
        backward = disagreement_index(ladders, beta, alpha)
        if forward != backward:
            report.failures.append(f"asymmetric at {alpha}, {beta}")
        if any(
            ladders.value(alpha, i) != ladders.value(beta, i) for i in range(forward)
        ) or ladders.value(alpha, forward) == ladders.value(beta, forward):
            report.failures.append(f"not minimal at {alpha}, {beta}")
    return report


@_timed
def check_bound_extension_monotone(seed: int, cases: int = 60) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("successor stages of the bound dominate earlier ones", cases)
    family = FuncFamily.ladder_disagreement(LadderSystem.seeded(seed), W3)
    for _ in range(cases):
        gamma = random_ordinal(rng, W3)
        if gamma.is_zero:
            continue
        g_lo = bound_function(family, gamma)
        g_hi = bound_function(family, gamma + 1)
        for _ in range(5):
            x = random_ordinal(rng, gamma)
            if g_hi(x) < g_lo(x):
                report.failures.append(f"gamma={gamma}, x={x}")
    return report


@_timed
def check_weak_bounds(seed: int, cases: int = 100) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("weak-bound witnesses verify on their own closure", cases)
    for case in range(cases):
        family = FuncFamily.ladder_disagreement(LadderSystem.seeded(seed * 1000 + case), W3)
        if case % 2 == 0:
            gamma = random_limit(rng, W3)
            while gamma <= OMEGA:
                gamma = random_limit(rng, W3)
            points = {random_ordinal(rng, gamma) for _ in range(rng.randint(3, 8))}
            bound = weak_bound_below(family, gamma, points, prefix_depth=3)
        else:
            avoid = {random_limit(rng, W2) for _ in range(rng.randint(1, 5))}
            points = {random_ordinal(rng, W2) for _ in range(rng.randint(3, 8))}
            # the derived club of W3, one to three points past the first above the sample
            club = derived_club(
                family, W3, max(points | avoid), lambda n: n + 1 + rng.randint(1, 3)
            )
            bound = weak_bound_avoiding(family, avoid, club, points, prefix_depth=3)
        violations = verify_witness(bound, family)
        if violations:
            report.failures.append(f"case {case}: {violations[:3]}")
    return report


# -- growth ------------------------------------------------------------------


def growth_rows(h: HFamily, chain) -> list[dict]:
    """Rows (N, min_cap, min_sum, witness_max) along a nested index chain."""
    rows = []
    previous = None
    for A in chain:
        A = sorted(A)
        if previous is not None and not set(previous) <= set(A):
            raise DomainError("growth schedules must be nested")
        cap = min_cap(h, A)
        ms = min_sum_labeling(h, A)
        rows.append(
            {
                "N": len(A),
                "min_cap": cap,
                "min_sum": ms.total,
                "witness_max": max(ms.labeling.values(), default=0),
                "exact": ms.exact,
            }
        )
        previous = A
    caps = [row["min_cap"] for row in rows]
    if caps != sorted(caps):
        raise AssertionError(f"min_cap decreased along a nested chain: {caps}")
    return rows


@_timed
def check_growth(seed: int = 0) -> CheckReport:
    report = CheckReport("min_cap grows monotonically along nested chains", 0)
    family = FuncFamily.walk(LadderSystem.canonical(), W2)
    limits = first_limits(W2, 8)
    h = sum_threshold_family(family, limits)
    chain = [limits[:n] for n in range(2, 9)]
    rows = growth_rows(h, chain)
    report.cases = len(rows)
    report.failures.extend(
        f"row {row}" for prev, row in zip(rows, rows[1:]) if row["min_cap"] < prev["min_cap"]
    )
    empty = explicit_hfamily(list(range(5)), {})
    for row in growth_rows(empty, [list(range(n)) for n in range(1, 6)]):
        report.cases += 1
        if row["min_cap"] or row["min_sum"] or row["witness_max"]:
            report.failures.append(f"empty family row {row}")
    return report


# -- suite -------------------------------------------------------------------


def run_all(seed: int = 0, fast: bool = False) -> list[CheckReport]:
    scale = 10 if fast else 1
    return [
        check_ordinal_roundtrip(seed, 10_000 // scale),
        check_ordinal_order(seed, 10_000 // scale),
        check_ladder_monotone(seed, 1000 // scale),
        check_ladder_cofinal(seed, 300 // scale),
        check_walks(seed, 10_000 // scale),
        check_staircases(seed, 10_000 // scale),
        check_constant_diagonal(),
        check_oracle_equivalence(seed, 500 // scale),
        check_separation_monotone(seed, 200 // scale),
        check_exact_quantities(),
        check_correspondence(seed, 1000 // scale),
        check_extraction_roundtrip(seed, 200 // scale),
        check_space_bases(seed, 150 // scale),
        check_clopen(seed),
        check_export_roundtrip(seed, 100 // scale),
        check_separation_labeling(seed, 100 // scale),
        check_disagreement_symmetry(seed, 200 // scale),
        check_bound_extension_monotone(seed, 60 // scale),
        check_weak_bounds(seed, 100 // scale),
        check_growth(seed),
    ]
