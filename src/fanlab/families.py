"""Families of integer-valued functions indexed by ordinals, and weak bounds.

A family assigns to every beta below a bound the function h_beta whose
domain is beta.  Three kinds exist: walk families (h_beta(alpha) is the
number of minimal-walk steps from beta to alpha), ladder-disagreement
families (h_beta(alpha) is the first index where the ladders of alpha and
beta differ, 0 unless both are limits), and explicit finite tables.

g weakly bounds h with witness n when g(x) + n > h(x) on the common domain.
The module constructs, for a limit gamma, a function g bounding every
h_beta with beta < gamma by the club recursion (pointwise max at successor
stages, jump to the next club point at limit stages), plus the variant that
bounds {h_beta : beta in A} using a club disjoint from A.  Both are one
recursion with two sources of clubs: the ladder of gamma shifted by one
(_BoundEngine.club_split) or an explicit club (_club_split).  Each splits a
limit into the last club point below it and the first above it; samples are
closed under that split, and a limit stage's witness is
escape(beta, lower) + 1 + witness(upper, beta).  Witnesses are these
structural values for ladder families and sample-evaluated maxima
otherwise; both are checked exhaustively on the certification sample.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import ClosureError, DomainError, ValidationError
from .ordinals import (
    LadderSystem,
    Ordinal,
    check_index_kinds,
    index_from_json,
    index_to_json,
    parse_ordinal,
)
from .walks import CSequence

_DISAGREE_SCAN_LIMIT = 1 << 16


class FuncFamily:
    """Evaluator (alpha, beta) -> natural for alpha < beta below the bound."""

    def __init__(self, kind, bound, ladders=None, table=None, indices=(), default=0):
        if kind not in ("walk", "ladder", "explicit"):
            raise ValidationError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.bound = bound
        self.ladders = ladders
        self.indices = tuple(sorted(set(indices)))
        self.table = dict(table or {})
        self.default = default
        if kind in ("walk", "ladder"):
            if ladders is None:
                raise ValidationError(f"{kind} families need a ladder system")
            if bound is None:
                raise ValidationError(f"{kind} families need an ordinal bound")
        if kind == "walk":
            self.csequence = CSequence(ladders)

    @classmethod
    def walk(cls, ladders: LadderSystem, bound: Ordinal) -> "FuncFamily":
        return cls("walk", bound, ladders=ladders)

    @classmethod
    def ladder_disagreement(cls, ladders: LadderSystem, bound: Ordinal) -> "FuncFamily":
        return cls("ladder", bound, ladders=ladders)

    @classmethod
    def explicit(cls, table: dict, bound=None, indices=(), default: int = 0) -> "FuncFamily":
        keys = set(indices).union(*table)
        check_index_kinds(keys)
        for (a, b), v in table.items():
            if not a < b:
                raise ValidationError(f"table key ({a}, {b}) is not increasing")
            if v < 0:
                raise ValidationError("family values must be naturals")
        return cls("explicit", bound, table=table, indices=keys, default=default)

    def _check_pair(self, alpha, beta) -> None:
        if not alpha < beta:
            raise DomainError(f"need alpha < beta, got {alpha}, {beta}")
        if self.bound is not None and not beta < self.bound:
            raise DomainError(f"{beta} is not below the bound {self.bound}")

    def value(self, alpha, beta) -> int:
        self._check_pair(alpha, beta)
        if self.kind == "explicit":
            return self.table.get((alpha, beta), self.default)
        if self.kind == "walk":
            return self.csequence.rho2(alpha, beta)
        if not (alpha.is_limit and beta.is_limit):
            return 0
        return disagreement_index(self.ladders, alpha, beta)

    def to_json(self) -> dict:
        data = {"kind": self.kind, "bound": None if self.bound is None else str(self.bound)}
        if self.kind == "explicit":
            data["indices"] = [index_to_json(v) for v in self.indices]
            pos = {v: i for i, v in enumerate(self.indices)}
            data["table"] = sorted(
                [pos[a], pos[b], v] for (a, b), v in self.table.items()
            )
            data["default"] = self.default
        else:
            data["ladders"] = self.ladders.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FuncFamily":
        if not isinstance(data, dict):
            raise ValidationError("a family must be a JSON object")
        kind = data.get("kind")
        if not isinstance(data.get("bound"), (str, type(None))):
            raise ValidationError("family 'bound' must be an ordinal literal or null")
        bound = parse_ordinal(data["bound"]) if data.get("bound") else None
        if kind in ("walk", "ladder"):
            if not isinstance(data.get("ladders"), dict):
                raise ValidationError(f"{kind} families need a 'ladders' object")
            ladders = LadderSystem.from_json(data["ladders"])
            return cls(kind, bound, ladders=ladders)
        if kind == "explicit":
            indices = data.get("indices", [])
            if not isinstance(indices, list) or not all(
                type(v) is int or isinstance(v, str) for v in indices
            ):
                raise ValidationError("family 'indices' must be a list of ints and ordinal literals")
            indices = tuple(index_from_json(v) for v in indices)
            rows = data.get("table", [])
            if not isinstance(rows, list):
                raise ValidationError("family 'table' must be a list")
            table = {}
            for row in rows:
                if not (
                    isinstance(row, list) and len(row) == 3 and all(type(x) is int for x in row)
                    and 0 <= row[0] < len(indices) and 0 <= row[1] < len(indices)
                ):
                    raise ValidationError(
                        f"bad table row {row!r}: need ints [i, j, value], i and j in "
                        f"range({len(indices)})"
                    )
                i, j, v = row
                table[(indices[i], indices[j])] = v
            default = data.get("default", 0)
            if type(default) is not int:
                raise ValidationError("family 'default' must be an integer")
            return cls.explicit(table, bound=bound, indices=indices, default=default)
        raise ValidationError(f"unknown family kind {kind!r}")


def disagreement_index(ladders: LadderSystem, alpha: Ordinal, beta: Ordinal) -> int:
    """First index where the ladders of two distinct limits differ."""
    for n in range(_DISAGREE_SCAN_LIMIT):
        if ladders.value(alpha, n) != ladders.value(beta, n):
            return n
    raise DomainError(f"ladders of {alpha} and {beta} agree beyond the scan limit")


def empirical_witness(family: FuncFamily, alpha, gamma, sample) -> int:
    """Least n >= 1 with h_alpha(xi) < h_gamma(xi) + n for all xi in the sample below alpha."""
    if not alpha < gamma:
        raise DomainError(f"need alpha < gamma, got {alpha}, {gamma}")
    best = 0
    for xi in sample:
        if xi < alpha:
            best = max(best, family.value(xi, alpha) - family.value(xi, gamma))
    return max(1, best + 1)


def separation_labeling(family: FuncFamily, gamma, sample) -> dict:
    """Labeling f with f(a) + f(b) > h_b(a) for all a < b <= gamma in the sample.

    Points below gamma get h_gamma plus their sample witness; the rest get 0.
    The guarantee is exact on the sample: for a < b <= gamma,
    f(a) + f(b) >= h_gamma(a) + witness(b) > h_b(a).
    """
    points = set(sample)
    points.add(gamma)
    labeling = {}
    for alpha in points:
        if alpha < gamma:
            labeling[alpha] = family.value(alpha, gamma) + empirical_witness(
                family, alpha, gamma, points
            )
        else:
            labeling[alpha] = 0
    return labeling


# -- certification samples ---------------------------------------------------


@dataclass(frozen=True)
class SampleClosure:
    """Finite set of ordinals closed under the maps a construction consults."""

    points: frozenset
    description: tuple

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, x):
        return x in self.points

    def __len__(self):
        return len(self.points)

    def sorted(self) -> list[Ordinal]:
        return sorted(self.points)


def _close(family: FuncFamily, points, prefix_depth: int, club_split) -> frozenset:
    """Close points under ladder prefixes and, at each limit x, under the club
    points club_split(x) gives on either side of x."""
    ladders = _club_ladders(family)
    closed = set()
    queue = list(points)
    while queue:
        x = queue.pop()
        if x in closed:
            continue
        closed.add(x)
        if x.is_limit:
            queue.extend(ladders.value(x, i) for i in range(prefix_depth))
            lower, upper = club_split(x)
            queue.append(upper)
            if lower is not None:
                queue.append(lower)
    return frozenset(closed)


def close_below(
    family: FuncFamily, gamma: Ordinal, points, prefix_depth: int = 4
) -> SampleClosure:
    """Close a point set below gamma under ladder prefixes and club jumps."""
    if not gamma.is_limit:
        raise DomainError(f"{gamma} is not a limit ordinal")
    for x in points:
        if not x < gamma:
            raise DomainError(f"sample point {x} is not below {gamma}")
    engine = _BoundEngine(family)
    closed = _close(family, points, prefix_depth, lambda x: engine.club_split(gamma, x))
    return SampleClosure(closed, ("below", gamma, prefix_depth))


def close_avoiding(
    family: FuncFamily, avoid, club, points, prefix_depth: int = 4
) -> SampleClosure:
    """Close a point set under ladder prefixes and jumps through an explicit club."""
    avoid = frozenset(avoid)
    club = _explicit_club(club, avoid)
    closed = _close(family, set(points) | avoid, prefix_depth, lambda x: _club_split(club, x))
    return SampleClosure(closed, ("avoiding", tuple(sorted(avoid)), club, prefix_depth))


def is_closed(family: FuncFamily, closure: SampleClosure) -> bool:
    """Idempotence check: re-closing the point set adds nothing."""
    mode = closure.description[0]
    if mode == "below":
        _, gamma, depth = closure.description
        again = close_below(family, gamma, closure.points, depth)
    else:
        _, avoid, club, depth = closure.description
        again = close_avoiding(family, avoid, club, closure.points, depth)
    return again.points == closure.points


def _explicit_club(club, avoid) -> tuple:
    """The club as a sorted tuple; ClosureError unless it avoids the set."""
    club = tuple(sorted(set(club)))
    if set(avoid) & set(club):
        raise ClosureError("the club must avoid the given set")
    return club


def _club_split(club: tuple, x: Ordinal):
    """(last point of a sorted club below x or None, first one above).

    The explicit club's counterpart of _BoundEngine.club_split; ClosureError
    when no club point lies above x.
    """
    i = bisect.bisect_right(club, x)
    if i == len(club):
        raise ClosureError(f"the club has no element above {x}")
    j = bisect.bisect_left(club, x, 0, i)
    return (club[j - 1] if j else None), club[i]


# -- the weak-bound recursion -----------------------------------------------


def _club_ladders(family: FuncFamily) -> LadderSystem:
    """Ladder system used for walk clubs; canonical when the family has none."""
    return family.ladders if family.ladders is not None else LadderSystem.canonical()


class _BoundEngine:
    """Memoized evaluator for the club recursion g_gamma and its witnesses.

    g_{xi+1} is the pointwise max of g_xi and h_xi (top point 1); for limit
    gamma, g_gamma sends a limit beta to g at the first club point of gamma
    above beta and everything else to 1, the club being the ladder of gamma
    shifted by one (successor ordinals only, hence disjoint from the limits).
    """

    def __init__(self, family: FuncFamily):
        self.family = family
        self.ladders = _club_ladders(family)
        self._values: dict[tuple[Ordinal, Ordinal], int] = {}
        self._witnesses: dict[tuple[Ordinal, Ordinal], int] = {}

    def club_split(self, gamma: Ordinal, beta: Ordinal):
        """(last club point of gamma below beta or None, first one above)."""
        n = self.ladders.first_index_at_least(gamma, beta)
        upper = self.ladders.value(gamma, n) + 1
        lower = self.ladders.value(gamma, n - 1) + 1 if n else None
        return lower, upper

    def escape(self, beta: Ordinal, lower) -> int:
        """Least k with ladder(beta, k) above the club point lower; 0 for None."""
        return 0 if lower is None else self.ladders.first_index_at_least(beta, lower + 1)

    def g(self, gamma: Ordinal, x: Ordinal) -> int:
        if not x < gamma:
            raise DomainError(f"{x} is not below {gamma}")
        # Walk down to a known or base value, then fill in the memo upwards,
        # so long successor chains need no recursion.
        chain = []
        while True:
            key = (gamma, x)
            value = self._values.get(key)
            if value is not None:
                break
            if gamma.is_successor:
                xi = gamma.predecessor()
                if x == xi:
                    value = 1
                    break
                chain.append((key, xi))
                gamma = xi
            elif x.is_limit:
                chain.append((key, None))
                gamma = self.club_split(gamma, x)[1]
            else:
                value = 1
                break
        self._values[key] = value
        for key, xi in reversed(chain):
            if xi is not None:
                value = max(value, self.family.value(x, xi))
            self._values[key] = value
        return value

    def witness(self, gamma: Ordinal, beta: Ordinal) -> int:
        """n with g_gamma(x) + n > h_beta(x) for all x < beta.

        Structural for ladder families: at limit stages n = k + m + 1 where
        the ladder of beta clears the last club point below beta at index k
        and m is the witness one club point up.  Valid at every point, not
        just sampled ones.
        """
        if not beta < gamma:
            raise DomainError(f"{beta} is not below {gamma}")
        # Each stage adds its offset to the witness one stage down; walk down
        # to a known or base value, then fill in the memo upwards.
        chain = []
        while True:
            key = (gamma, beta)
            value = self._witnesses.get(key)
            if value is not None:
                break
            if not beta.is_limit:
                value = 1  # h_beta vanishes off pairs of limits
                break
            if gamma.is_successor:
                xi = gamma.predecessor()
                if xi == beta:
                    value = 1
                    break
                chain.append((key, 0))
                gamma = xi
            else:
                lower, upper = self.club_split(gamma, beta)
                chain.append((key, self.escape(beta, lower) + 1))
                gamma = upper
        self._witnesses[key] = value
        for key, offset in reversed(chain):
            value += offset
            self._witnesses[key] = value
        return value


class WeakBound:
    """Lazily evaluable bound function produced by the club recursion."""

    def __init__(self, engine: _BoundEngine, gamma: Ordinal | None, club: tuple = ()):
        self._engine = engine
        self.gamma = gamma
        self.club = club

    def __call__(self, x: Ordinal) -> int:
        if self.gamma is not None:
            return self._engine.g(self.gamma, x)
        if not x.is_limit:
            return 1
        i = bisect.bisect_right(self.club, x)
        if i == len(self.club):
            raise DomainError(f"the club has no element above {x}")
        return self._engine.g(self.club[i], x)


def bound_function(family: FuncFamily, gamma: Ordinal) -> WeakBound:
    """The recursion's g_gamma as a standalone evaluable function."""
    return WeakBound(_BoundEngine(family), gamma)


@dataclass(frozen=True)
class BoundWitness:
    """A bound g together with per-function witnesses, checked on a sample."""

    g: WeakBound
    witness: dict
    certified_on: frozenset

    def to_json(self) -> dict:
        return {
            "witness": [[str(b), n] for b, n in sorted(self.witness.items())],
            "certified_on": [str(x) for x in sorted(self.certified_on)],
        }


def _certify(
    family: FuncFamily, sample: SampleClosure, g: WeakBound, betas, structural
) -> BoundWitness:
    """Witnesses for h_beta against g, for beta in betas: structural(beta) for
    ladder families, else the least n that works on the sample."""
    if not is_closed(family, sample):
        raise ClosureError("the certification sample is not closed")
    witness = {}
    for beta in betas:
        if family.kind == "ladder":
            witness[beta] = structural(beta)
        else:
            excess = [family.value(x, beta) - g(x) for x in sample.points if x < beta]
            witness[beta] = max([0, *excess]) + 1
    return BoundWitness(g, witness, sample.points)


def weak_bound_below(family: FuncFamily, gamma: Ordinal, sample: SampleClosure) -> BoundWitness:
    """Bound every h_beta with beta < gamma; witnesses certified on the sample."""
    if not gamma.is_limit:
        raise DomainError(f"{gamma} is not a limit ordinal")
    engine = _BoundEngine(family)
    return _certify(
        family, sample, WeakBound(engine, gamma), sample.sorted(),
        lambda beta: engine.witness(gamma, beta),
    )


def weak_bound_avoiding(
    family: FuncFamily, avoid, club, sample: SampleClosure
) -> BoundWitness:
    """Bound {h_beta : beta in avoid} through a club disjoint from it."""
    avoid = tuple(sorted(set(avoid)))
    club = _explicit_club(club, avoid)
    for beta in avoid:
        if not beta.is_limit:
            raise DomainError(f"{beta} is not a limit ordinal")
    engine = _BoundEngine(family)

    def limit_stage(beta):
        # the engine's limit stage, with the split read off the explicit club
        lower, upper = _club_split(club, beta)
        return engine.escape(beta, lower) + 1 + engine.witness(upper, beta)

    return _certify(family, sample, WeakBound(engine, None, club), avoid, limit_stage)


def verify_witness(bound: BoundWitness, family: FuncFamily, sample=None) -> list[tuple]:
    """Pairs (alpha, beta) in the sample with g(alpha) + n_beta <= h_beta(alpha)."""
    points = sorted(bound.certified_on if sample is None else set(sample))
    violations = []
    for beta in points:
        n = bound.witness.get(beta)
        if n is None:
            continue
        for alpha in points:
            if alpha < beta and bound.g(alpha) + n <= family.value(alpha, beta):
                violations.append((alpha, beta))
    return violations
