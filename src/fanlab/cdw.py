"""Finite downward-closed subsets of omega x omega and indexed families of them.

A downward-closed set is stored by its staircase: the antichain of maximal
elements, sorted by first coordinate.  Membership of (n, m) is a binary
search for the first staircase point with first coordinate >= n followed by
a dominance test.

A family assigns such a set to every increasing index pair and has one
representation, a table of staircases.  Constructors fill the table from
explicit pair lists, from an integer-valued function family via the sum
threshold n + m <= h (evaluated once per pair), or by extraction from
neighborhood-intersection data of a space.  In an hset file the entries are
the sets; a function family stored next to them records where they came from.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, GuardExceeded, ValidationError
from .families import FuncFamily
from .ordinals import MAX_DIGITS, check_distinct, check_index_kinds, index_from_json, index_to_json

# The largest family value sum_threshold materializes as a staircase.
MAX_THRESHOLD = 1 << 18
# Staircase coordinates have at most MAX_DIGITS digits, so every size can be printed.
_MAX_COORDINATE = 10**MAX_DIGITS


@dataclass(frozen=True)
class CdwSet:
    """Finite downward-closed set, held as its staircase antichain."""

    staircase: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = None
        for n, m in self.staircase:
            if n < 0 or m < 0:
                raise ValidationError("staircase coordinates must be naturals")
            if prev is not None and (n <= prev[0] or m >= prev[1]):
                raise ValidationError(
                    "staircase must have strictly increasing n and decreasing m"
                )
            prev = (n, m)
        if self.staircase and max(self.staircase[-1][0], self.staircase[0][1]) >= _MAX_COORDINATE:
            raise ValidationError(f"staircase coordinates must have at most {MAX_DIGITS} digits")
        object.__setattr__(self, "_firsts", tuple(n for n, _ in self.staircase))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        n, m = pair
        if n < 0 or m < 0:
            return False
        i = bisect_left(self._firsts, n)
        return i < len(self.staircase) and m <= self.staircase[i][1]

    @property
    def is_empty(self) -> bool:
        return not self.staircase

    def max_m_for(self, n: int) -> int:
        """Largest m with (n, m) in the set, or -1 if no such m."""
        i = bisect_left(self._firsts, n)
        return self.staircase[i][1] if i < len(self.staircase) else -1

    def max_n_for(self, m: int) -> int:
        """Largest n with (n, m) in the set, or -1 if no such n."""
        return max((n for n, top in self.staircase if top >= m), default=-1)

    def max_n(self) -> int:
        return self.staircase[-1][0] if self.staircase else -1

    def max_m(self) -> int:
        return self.staircase[0][1] if self.staircase else -1

    def points(self) -> Iterator[tuple[int, int]]:
        """All members in lexicographic order: by n, then by m."""
        prev_n = -1
        for n, m in self.staircase:
            for col in range(prev_n + 1, n + 1):
                for row in range(m + 1):
                    yield (col, row)
            prev_n = n

    def size(self) -> int:
        """The number of members; unlike len(), it may exceed sys.maxsize."""
        total, prev_n = 0, -1
        for n, m in self.staircase:
            total += (n - prev_n) * (m + 1)
            prev_n = n
        return total

    def __len__(self) -> int:
        return self.size()


EMPTY_CDW = CdwSet(())


def downward_close(pairs: Iterable[tuple[int, int]]) -> CdwSet:
    """Smallest downward-closed superset, i.e. the staircase of the input."""
    frontier: list[tuple[int, int]] = []
    best = -1
    for n, m in sorted(set(pairs), reverse=True):
        if n < 0 or m < 0:
            raise ValidationError("pairs must have natural coordinates")
        if m > best:
            frontier.append((n, m))
            best = m
    return CdwSet(tuple(reversed(frontier)))


def sum_threshold(family: FuncFamily, alpha, beta) -> CdwSet:
    """The set {(n, m) : n + m <= h} for h the family value at (alpha, beta).

    Its staircase has h + 1 points, so GuardExceeded when h > MAX_THRESHOLD.
    """
    h = family.value(alpha, beta)
    if h > MAX_THRESHOLD:
        raise GuardExceeded(
            f"h({alpha}, {beta}) = {h} exceeds {MAX_THRESHOLD}: its staircase has h + 1 points"
        )
    return CdwSet(tuple((t, h - t) for t in range(h + 1)))


class HFamily:
    """Assignment of a downward-closed set S_ab to every pair a < b of indices.

    The sets are held in one table from index pairs to their non-empty sets; a
    pair missing from the table has the empty set.  family, when set, is the
    function family the table was evaluated from by the sum threshold: it is
    provenance that to_json writes back out, never consulted by get.
    """

    def __init__(self, indices, entries=None, family: FuncFamily | None = None):
        indices = set(indices)
        check_index_kinds(indices)
        self.indices = tuple(sorted(indices))
        self.family = family
        self._pos = {v: i for i, v in enumerate(self.indices)}
        self._entries = {}
        for (a, b), cdw in (entries or {}).items():
            if a not in self._pos or b not in self._pos or not a < b:
                raise ValidationError(f"bad entry key ({a}, {b})")
            if not isinstance(cdw, CdwSet):
                raise ValidationError("entries must be CdwSet values")
            if not cdw.is_empty:
                self._entries[(a, b)] = cdw

    def position(self, value) -> int:
        try:
            return self._pos[value]
        except KeyError:
            raise DomainError(f"{value} is not an index of this family") from None

    def get(self, a, b) -> CdwSet:
        if self.position(a) >= self.position(b):
            raise DomainError(f"need a < b, got {a}, {b}")
        return self._entries.get((a, b), EMPTY_CDW)

    def pairs(self) -> Iterator[tuple]:
        for i, a in enumerate(self.indices):
            for b in self.indices[i + 1 :]:
                yield (a, b)

    def restrict(self, subset) -> "HFamily":
        """The same assignment over a subset of the indices."""
        subset = set(subset)
        for v in subset:
            self.position(v)
        keep = {k: v for k, v in self._entries.items() if k[0] in subset and k[1] in subset}
        return HFamily(subset, keep, self.family)

    def to_json(self) -> dict:
        """kind is sum_threshold, with the family, exactly when the family is known."""
        data = {
            "indices": [index_to_json(v) for v in self.indices],
            "kind": "explicit" if self.family is None else "sum_threshold",
            "entries": sorted(
                [self._pos[a], self._pos[b], [list(p) for p in cdw.staircase]]
                for (a, b), cdw in self._entries.items()
            ),
        }
        if self.family is not None:
            data["family"] = self.family.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "HFamily":
        """Read an hset file: its entries are the sets, whatever its kind.

        A sum_threshold file that has a family but no entries is evaluated
        from the family.  "from_space" is read as a synonym of "explicit".
        """
        if not isinstance(data, dict):
            raise ValidationError("an hset must be a JSON object")
        indices = data.get("indices")
        if not isinstance(indices, list) or not all(
            type(v) is int or isinstance(v, str) for v in indices
        ):
            raise ValidationError("an hset needs an 'indices' list of ints and ordinal literals")
        indices = tuple(index_from_json(v) for v in data["indices"])
        check_distinct(indices, "hset index")
        kind = data.get("kind", "explicit")
        if kind not in ("explicit", "from_space", "sum_threshold"):
            raise ValidationError(f"unknown family kind {kind!r}")
        family = None
        if kind == "sum_threshold" and "family" in data:
            family = FuncFamily.from_json(data["family"])
            if "entries" not in data:
                return sum_threshold_family(family, indices)
            _check_below_bound(family, indices)
        if not isinstance(data.get("entries", []), list):
            raise ValidationError("hset 'entries' must be a list")
        entries = {}
        for entry in data.get("entries", []):
            try:
                i, j, staircase = entry
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad entry {entry!r}: {exc}") from exc
            if not (type(i) is int and type(j) is int and 0 <= i < j < len(indices)):
                raise ValidationError(
                    f"entry ({i!r}, {j!r}) needs positions i < j in range({len(indices)})"
                )
            try:
                points = tuple((n, m) for n, m in staircase)
                if not all(type(n) is int and type(m) is int for n, m in points):
                    raise TypeError("coordinates must be JSON ints")
                cdw = CdwSet(points)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad staircase for entry ({i}, {j}): {exc}") from exc
            if (indices[i], indices[j]) in entries:
                raise ValidationError(f"entry ({i}, {j}) is listed twice")
            entries[(indices[i], indices[j])] = cdw
        return cls(indices, entries, family)


def explicit_hfamily(indices, staircases: dict) -> HFamily:
    """Family from {(a, b): iterable of pairs}; each value is closed downward."""
    entries = {
        key: pairs if isinstance(pairs, CdwSet) else downward_close(pairs)
        for key, pairs in staircases.items()
    }
    return HFamily(indices, entries)


def _check_below_bound(family: FuncFamily, indices) -> None:
    if family.bound is not None:
        for v in indices:
            if not isinstance(v, int) and v >= family.bound:
                raise ValidationError(f"index {v} is not below the family bound")


def sum_threshold_family(family: FuncFamily, indices) -> HFamily:
    """The family S_ab = {(n, m) : n + m <= h(a, b)}, evaluated once per pair."""
    indices = sorted(set(indices))
    _check_below_bound(family, indices)
    entries = {
        (a, b): sum_threshold(family, a, b)
        for i, a in enumerate(indices)
        for b in indices[i + 1 :]
    }
    return HFamily(indices, entries, family)


# -- intersection data and extraction ---------------------------------------


@dataclass(frozen=True)
class SpaceData:
    """Finite table of which basic neighborhoods meet which, below depth.

    pairs maps a position pair (i, j) with i < j to the set of (n, m) such
    that the n-th basic neighborhood of point i meets the m-th of point j;
    pairs whose neighborhoods never meet are left out.  Bases decrease, so
    each such set is downward closed: one staircase per pair.
    """

    points: tuple
    depth: int
    pairs: dict = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), cdw in self.pairs.items():
            if not 0 <= i < j < len(self.points):
                raise ValidationError(f"pair {(i, j)} outside the table domain")
            if max(cdw.max_n(), cdw.max_m()) >= self.depth:
                raise ValidationError(f"staircase of pair {(i, j)} reaches depth {self.depth}")

    def intersects(self, i: int, n: int, j: int, m: int) -> bool:
        """Whether U_n(point i) meets U_m(point j); symmetric in (i, n) and (j, m)."""
        if i > j:
            i, n, j, m = j, m, i, n
        return (n, m) in self.pairs.get((i, j), EMPTY_CDW)


@dataclass(frozen=True)
class ExtractionResult:
    family: HFamily


def extract_from_space(data: SpaceData) -> ExtractionResult:
    """Recover a downward-closed family from neighborhood-intersection data:
    each position pair's staircase, relabelled by its points."""
    p = data.points
    return ExtractionResult(HFamily(p, {(p[i], p[j]): cdw for (i, j), cdw in data.pairs.items()}))
