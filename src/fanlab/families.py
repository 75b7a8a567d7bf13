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
bounds {h_beta : beta in A} using a club disjoint from A.  One memoised walk
down the recursion (_BoundEngine._stage) gives g and the witness together:
a successor stage folds h into the max, a limit stage jumps to the first
club point above and adds escape(beta, lower) + 1 to the witness, where
lower is the last club point below.  Clubs come from two sources, the
ladder of gamma shifted by one (_BoundEngine.club_point, whose finite prefix
derived_club gives) or an explicit club (_club_split); each splits a limit
into the club points on either side.  A
SampleClosure records its points, the split they are closed under and the
ladder-prefix depth, so re-closing it is the whole closure check.
Witnesses are the structural values for ladder families and sample-evaluated
maxima otherwise; both are checked exhaustively on the certification sample.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import ClosureError, DomainError, GuardExceeded, ValidationError
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
# Budget of both walks down the club recursion: the terms of the points one
# sample closure collects (points can grow longer as the closure grows) and
# the stages one _BoundEngine memoises; past it, GuardExceeded.
MAX_STAGES = 1 << 14


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
    """Finite set of ordinals closed under the maps a construction consults:
    ladder prefixes of length prefix_depth at every limit, and the club points
    club_split(x) gives on either side of every limit x."""

    points: frozenset
    club_split: Callable
    prefix_depth: int

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
    terms = 0
    queue = list(points)
    while queue:
        x = queue.pop()
        if x in closed:
            continue
        closed.add(x)
        terms += len(x)
        if terms > MAX_STAGES:
            raise GuardExceeded(f"the sample closure grows past {MAX_STAGES} terms")
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
    if family.bound is not None and family.bound < gamma:
        raise DomainError(f"{gamma} is above the family bound {family.bound}")
    for x in points:
        if not x < gamma:
            raise DomainError(f"sample point {x} is not below {gamma}")
    split = partial(_BoundEngine(family).club_split, gamma)
    return SampleClosure(_close(family, points, prefix_depth, split), split, prefix_depth)


def close_avoiding(
    family: FuncFamily, avoid, club, points, prefix_depth: int = 4
) -> SampleClosure:
    """Close a point set under ladder prefixes and jumps through an explicit club."""
    avoid = frozenset(avoid)
    split = partial(_club_split, _explicit_club(club, avoid))
    return SampleClosure(
        _close(family, set(points) | avoid, prefix_depth, split), split, prefix_depth
    )


def is_closed(family: FuncFamily, closure: SampleClosure) -> bool:
    """Idempotence check: re-closing the point set adds nothing."""
    points = closure.points
    return _close(family, points, closure.prefix_depth, closure.club_split) == points


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
    """Memoised walk down the club recursion, giving g_gamma and its witnesses.

    A stage (gamma, x) with x < gamma has the value (g_gamma(x), n), where
    g_gamma(y) + n > h_x(y) for all y < x.  At a successor gamma = xi + 1 the
    stage is (1, 1) for x = xi, else the stage (xi, x) with h_xi(x) folded
    into the max.  At a limit gamma a limit x takes the stage at the first
    club point of gamma above x, with escape(x, lower) + 1 added to the
    witness; any other x gets (1, 1).  The club is the ladder of gamma
    shifted by one (successor ordinals only, hence disjoint from the limits).
    For ladder families the witness is structural: valid at every point, not
    just sampled ones.
    """

    def __init__(self, family: FuncFamily):
        self.family = family
        self.ladders = _club_ladders(family)
        self._stages: dict[tuple[Ordinal, Ordinal], tuple[int, int]] = {}

    def club_point(self, gamma: Ordinal, n: int) -> Ordinal:
        """Point n of the club of gamma: its ladder shifted by one."""
        return self.ladders.value(gamma, n) + 1

    def club_split(self, gamma: Ordinal, beta: Ordinal):
        """(last club point of gamma below beta or None, first one above)."""
        n = self.ladders.first_index_at_least(gamma, beta)
        return (self.club_point(gamma, n - 1) if n else None), self.club_point(gamma, n)

    def escape(self, beta: Ordinal, lower) -> int:
        """Least k with ladder(beta, k) above the club point lower; 0 for None."""
        return 0 if lower is None else self.ladders.first_index_at_least(beta, lower + 1)

    def _stage(self, gamma: Ordinal, x: Ordinal) -> tuple[int, int]:
        if not x < gamma:
            raise DomainError(f"{x} is not below {gamma}")
        # Walk down to a known or base stage, then fill in the memo upwards,
        # so long chains need no recursion.
        chain = []
        while (gamma, x) not in self._stages:
            if len(self._stages) + len(chain) >= MAX_STAGES:
                raise GuardExceeded(f"the club recursion at {x} runs past {MAX_STAGES} stages")
            if gamma.is_successor:
                xi = gamma.predecessor()
                if x == xi:
                    self._stages[gamma, x] = (1, 1)
                    break
                chain.append((gamma, xi, 0))
                gamma = xi
            elif x.is_limit:
                lower, upper = self.club_split(gamma, x)
                chain.append((gamma, None, self.escape(x, lower) + 1))
                gamma = upper
            else:
                self._stages[gamma, x] = (1, 1)
                break
        g, n = self._stages[gamma, x]
        for gamma, xi, offset in reversed(chain):
            if xi is not None:
                g = max(g, self.family.value(x, xi))
            n += offset
            self._stages[gamma, x] = (g, n)
        return g, n

    def g(self, gamma: Ordinal, x: Ordinal) -> int:
        return self._stage(gamma, x)[0]

    def witness(self, gamma: Ordinal, beta: Ordinal) -> int:
        """n with g_gamma(x) + n > h_beta(x) for all x < beta."""
        return self._stage(gamma, beta)[1]


def derived_club(family: FuncFamily, gamma: Ordinal, above, length: Callable) -> tuple:
    """The first length(n) points of the club of gamma that the recursion
    uses, n being the index of gamma's first ladder entry above `above`."""
    engine = _BoundEngine(family)
    n = engine.ladders.first_index_at_least(gamma, above + 1)
    return tuple(engine.club_point(gamma, k) for k in range(length(n)))


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
        return self._engine.g(_club_split(self.club, x)[1], x)


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
