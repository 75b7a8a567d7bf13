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
from .errors import ValidationError
from .ordinals import index_from_json, index_to_json
from .separation import solve_separation


@dataclass(frozen=True)
class CombSpace:
    indices: tuple
    isolated: tuple  # of ((a, n), (b, m)) with a < b both in indices

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

    def position(self, value) -> int:
        return self.indices.index(value)

    def incident(self, gamma, k: int | None = None) -> tuple:
        """The isolated points naming gamma, with coordinate >= k there if k is given."""
        depths, points = self._incident.get(gamma, ((), ()))
        return points if k is None else points[bisect_left(depths, k):]

    def neighborhood(self, gamma, k: int) -> frozenset:
        """U_k(gamma): the point itself plus incident isolated points of depth >= k."""
        return frozenset(self.incident(gamma, k)) | {("idx", gamma)}


def build_space(h: HFamily, A=None) -> CombSpace:
    """Materialize the space of a family over A (default: all its indices)."""
    A = tuple(sorted(h.indices if A is None else set(A)))
    isolated = []
    for i, a in enumerate(A):
        for b in A[i + 1 :]:
            for n, m in h.get(a, b).points():
                isolated.append(((a, n), (b, m)))
    return CombSpace(A, tuple(isolated))


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
    cap = 1 + max((max(n, m, 0) for (_, n), (_, m) in space.incident(gamma)), default=0)
    return all(
        (m if a == gamma else n) < cap for (a, n), (_, m) in space.incident(gamma, k)
    )


# -- fan view ----------------------------------------------------------------


@dataclass(frozen=True)
class FanClosureResult:
    adversary_wins: bool
    escape: dict | None  # labeling g with V_g missing the point set, if any


def induced_point_set(h: HFamily, B) -> list:
    """S_B: the fan-square points ((a, n), (b, m)) the family puts over B."""
    return list(build_space(h, B).isolated)


def product_open_meets(points, g: dict) -> bool:
    """Whether the basic product open coded by g meets the given point set."""
    return any(n >= g[a] and m >= g[b] for (a, n), (b, m) in points)


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
            [[pos[a], n], [pos[b], m]] for (a, n), (b, m) in sorted(
                space.isolated, key=lambda p: (pos[p[0][0]], pos[p[1][0]], p[0][1], p[1][1])
            )
        ],
    }


def space_from_json(data: dict) -> CombSpace:
    indices = tuple(index_from_json(v) for v in data["indices"])
    isolated = []
    for (i, n), (j, m) in data["isolated"]:
        if not (0 <= i < len(indices) and 0 <= j < len(indices)) or i >= j:
            raise ValidationError(f"bad isolated point [[{i},{n}],[{j},{m}]]")
        isolated.append(((indices[i], int(n)), (indices[j], int(m))))
    return CombSpace(indices, tuple(sorted(isolated, key=lambda p: (
        indices.index(p[0][0]), indices.index(p[1][0]), p[0][1], p[1][1]))))


def space_to_dot(space: CombSpace, k: int = 0) -> str:
    """DOT graph: index and isolated nodes, edges p in U_k(gamma)."""
    pos = {v: i for i, v in enumerate(space.indices)}
    lines = ["graph space {"]
    for i, v in enumerate(space.indices):
        lines.append(f'  idx_{i} [shape=box, label="{v}"];')
    names = {}
    for p in sorted(space.isolated, key=lambda p: (pos[p[0][0]], pos[p[1][0]], p[0][1], p[1][1])):
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
    {g_i, g_j} dominates (n, m), so the cells of a pair are the downward
    closure of its points clipped to the table.
    """
    pos = {v: i for i, v in enumerate(space.indices)}
    by_pair = {}
    if depth > 0:
        for (a, n), (b, m) in space.isolated:
            if n >= 0 and m >= 0:
                by_pair.setdefault((pos[a], pos[b]), []).append(
                    (min(n, depth - 1), min(m, depth - 1))
                )
    cells = set()
    for (i, j), pairs in by_pair.items():
        for n, m in downward_close(pairs).points():
            cells.add((i, n, j, m))
            cells.add((j, m, i, n))
    return SpaceData(space.indices, depth, frozenset(cells))
