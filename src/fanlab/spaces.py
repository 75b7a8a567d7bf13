"""Spaces induced by a c.d.w. family: index points plus isolated pair points.

A family over an index set A yields the space whose isolated points are the
tuples ((a, n), (b, m)) with a < b in A and (n, m) in the family's set for
(a, b); each index point g has the decreasing neighborhood base U_k(g)
consisting of g itself and the isolated points naming g in coordinate >= k.
A labeling f separates a subset exactly when the neighborhoods U_f(g)(g)
are pairwise disjoint, which is what ties these spaces to the solvers.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .cdw import HFamily, SpaceData, downward_close
from .errors import GuardExceeded, ValidationError
from .ordinals import index_from_json, index_to_json
from .separation import solve_separation

# The most isolated points build_space materializes.
MAX_SPACE_POINTS = 1 << 18


@dataclass(frozen=True)
class CombSpace:
    indices: tuple
    # of ((a, n), (b, m)) with a < b both in indices, in canonical order: by
    # position of a, then position of b, then n, then m.  The exports rely on it.
    isolated: tuple

    @cached_property
    def _incident(self) -> dict:
        """Per index point g: the coordinates at g of the isolated points naming
        g, ascending, and those points in the same order.

        Built on first use and not a field, so == and hash ignore it.
        """
        incident = {}
        for p in self.isolated:
            (a, n), (b, m) = p
            incident.setdefault(a, []).append((n, p))
            incident.setdefault(b, []).append((m, p))
        for pairs in incident.values():
            pairs.sort(key=lambda e: e[0])
        return {
            gamma: (tuple(d for d, _ in pairs), tuple(p for _, p in pairs))
            for gamma, pairs in incident.items()
        }

    def incident(self, gamma, k: int | None = None) -> tuple:
        """The isolated points naming gamma, with coordinate >= k there if k is given."""
        depths, points = self._incident.get(gamma, ((), ()))
        return points if k is None else points[bisect_left(depths, k):]

    def neighborhood(self, gamma, k: int) -> frozenset:
        """U_k(gamma): the point itself plus incident isolated points of depth >= k."""
        return frozenset(self.incident(gamma, k)) | {("idx", gamma)}


def build_space(h: HFamily, A=None) -> CombSpace:
    """Materialize the space of a family over A (default: all its indices).

    The isolated points are counted first, and more than MAX_SPACE_POINTS
    raise GuardExceeded before any is built.
    """
    A = tuple(sorted(h.indices if A is None else set(A)))
    sets = [(a, b, h.get(a, b)) for i, a in enumerate(A) for b in A[i + 1 :]]
    size = sum(s.size() for _, _, s in sets)
    if size > MAX_SPACE_POINTS:
        raise GuardExceeded(f"the space has {size} isolated points, more than {MAX_SPACE_POINTS}")
    isolated = tuple(((a, n), (b, m)) for a, b, s in sets for n, m in s.points())
    return CombSpace(A, isolated)


def space_separation_check(space: CombSpace, A, f: dict) -> bool:
    """True iff the neighborhoods U_f(g)(g), g in A, are pairwise disjoint.

    Computed by scanning the isolated points; index points are never shared.
    """
    chosen = set(A)
    for (a, n), (b, m) in space.isolated:
        if a in chosen and b in chosen and n >= f[a] and m >= f[b]:
            return False
    return True


def clopen_check(space: CombSpace, gamma, k: int) -> bool:
    """Verify that the complement of U_k(gamma) is open.

    Isolated points are open singletons, so the only question is whether
    every other index point delta has a basic neighborhood missing U_k(gamma).
    U_j(delta) meets U_k(gamma) only in isolated points on the pair
    {gamma, delta}, and does so exactly when j is at most delta's coordinate
    in one of them; the bases decrease, so the least j that misses is one
    plus the largest such coordinate.  The check passes when that j is within
    one plus the largest coordinate incident to gamma (at least 1), the depth
    beyond which only the index point itself is left.
    """
    cap = 1 + max((max(n, m) for (_, n), (_, m) in space.incident(gamma)), default=0)
    return all(
        (m if a == gamma else n) < cap for (a, n), (_, m) in space.incident(gamma, k)
    )


# -- fan view ----------------------------------------------------------------


@dataclass(frozen=True)
class FanClosureResult:
    adversary_wins: bool
    escape: dict | None  # labeling g with V_g missing the point set, if any


def probe_fan_closure(h: HFamily, B, cap: int) -> FanClosureResult:
    """Adversary wins iff every labeling with range <= cap meets the point set.

    That is exactly failure of separation at the cap, so the solver decides it.
    """
    result = solve_separation(h, sorted(set(B)), cap)
    if result.separated:
        return FanClosureResult(False, result.witness)
    return FanClosureResult(True, None)


# -- serialization -----------------------------------------------------------


def space_to_json(space: CombSpace) -> dict:
    pos = {v: i for i, v in enumerate(space.indices)}
    return {
        "indices": [index_to_json(v) for v in space.indices],
        "isolated": [
            [[pos[a], n], [pos[b], m]] for (a, n), (b, m) in space.isolated
        ],
    }


def space_from_json(data) -> CombSpace:
    """Read and validate a space file; the isolated points come out in canonical order.

    indices must be a strictly increasing list of ints or of ordinal literals,
    and every isolated point a distinct [[i, n], [j, m]] of JSON ints with
    0 <= i < j < len(indices) and n, m >= 0.
    """
    if not isinstance(data, dict):
        raise ValidationError("a space must be a JSON object")
    raw = data.get("indices")
    if not isinstance(raw, list) or not (
        all(type(v) is int for v in raw) or all(isinstance(v, str) for v in raw)
    ):
        raise ValidationError("a space needs an 'indices' list of ints or of ordinal literals")
    indices = tuple(index_from_json(v) for v in raw)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValidationError("space indices must be strictly increasing")
    if not isinstance(data.get("isolated"), list):
        raise ValidationError("a space needs an 'isolated' list")
    keys = []
    for point in data["isolated"]:
        try:
            (i, n), (j, m) = point
        except (TypeError, ValueError):
            raise ValidationError(f"isolated point {point!r} is not [[i, n], [j, m]]") from None
        if not (
            type(i) is type(j) is type(n) is type(m) is int
            and 0 <= i < j < len(indices) and n >= 0 and m >= 0
        ):
            raise ValidationError(
                f"isolated point {point!r} needs ints 0 <= i < j < {len(indices)} and n, m >= 0"
            )
        keys.append((i, j, n, m))
    if len(set(keys)) < len(keys):
        raise ValidationError("an isolated point is listed twice")
    keys.sort()
    return CombSpace(indices, tuple(((indices[i], n), (indices[j], m)) for i, j, n, m in keys))


def space_to_dot(space: CombSpace, k: int = 0) -> str:
    """DOT graph: index and isolated nodes, edges p in U_k(gamma)."""
    pos = {v: i for i, v in enumerate(space.indices)}
    lines = ["graph space {"]
    for i, v in enumerate(space.indices):
        lines.append(f'  idx_{i} [shape=box, label="{v}"];')
    names = {}
    for p in space.isolated:
        (a, n), (b, m) = p
        name = f"iso_{pos[a]}_{n}_{pos[b]}_{m}"
        names[p] = name
        lines.append(f'  {name} [shape=point, label="(({a},{n}),({b},{m}))"];')
    for gamma in space.indices:
        for p in sorted(space.neighborhood(gamma, k) - {("idx", gamma)},
                        key=lambda p: (pos[p[0][0]], pos[p[1][0]], p[0][1], p[1][1])):
            lines.append(f"  idx_{pos[gamma]} -- {names[p]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_space(space: CombSpace, fmt: str = "json", k: int = 0) -> str:
    if fmt == "json":
        return json.dumps(space_to_json(space), indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        return space_to_dot(space, k)
    raise ValidationError(f"unknown space format {fmt!r}")


def tabulate_intersections(space: CombSpace, depth: int) -> SpaceData:
    """The true neighborhood-intersection table of a built space, below depth.

    U_n(g_i) meets U_m(g_j) exactly when an isolated point on the pair
    {g_i, g_j} dominates (n, m), so the table of a pair is the downward
    closure of its points clipped to the table.
    """
    pos = {v: i for i, v in enumerate(space.indices)}
    by_pair = {}
    if depth > 0:
        for (a, n), (b, m) in space.isolated:
            by_pair.setdefault((pos[a], pos[b]), []).append((min(n, depth - 1), min(m, depth - 1)))
    return SpaceData(
        space.indices, depth, {key: downward_close(pairs) for key, pairs in by_pair.items()}
    )
