"""Decide and optimize separations of an index set against a c.d.w. family.

A labeling f separates A when (f(a), f(b)) avoids the family's set S_ab for
every pair a < b in A.  Because every set is closed downward, the feasible
labelings form an up-set: raising any label preserves separation.  So a
labeling with values <= cap exists iff the constant labeling cap works, i.e.
iff no pair has (cap, cap) in S_ab.  That gives three closed forms, all read
off one table of the pairs' sets:

* min_cap is the largest, over pairs, of the least c with (c, c) outside
  S_ab, which is max(min(n, m) + 1) over the staircase points of S_ab.
* solve_separation is blocked iff some pair has (cap, cap) in S_ab.  Else a
  prefix of labels extends to a witness iff it does so with every later label
  at cap, so the lex-least witness is built greedily, left to right: each
  label is the least one clearing the fixed earlier labels and, against cap,
  every later index.  That label is never above cap.
* min_sum_labeling stays a branch-and-bound, but once a prefix is fixed every
  later label has a floor (the least value clearing the prefix), so the
  prefix sum plus the later floors bounds every completion from below.

exists_separation_capped is the deliberately naive reference oracle; the
closed forms must agree with it, witness for witness.  Its size guard
ENUM_GUARD and min_sum_labeling's exact cutoff MIN_SUM_EXACT_LIMIT are module
constants, not parameters.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field

from .cdw import HFamily
from .errors import GuardExceeded

ENUM_GUARD = 10**8
MIN_SUM_EXACT_LIMIT = 12


@dataclass(frozen=True)
class SeparationResult:
    status: str  # "separated" | "blocked"
    cap: int
    witness: dict | None = None
    # blocked results from solve_separation: the first pair with (cap, cap) in its set
    pair: tuple | None = field(default=None, compare=False)

    @property
    def separated(self) -> bool:
        return self.status == "separated"


@dataclass(frozen=True)
class MinSumResult:
    labeling: dict
    total: int
    exact: bool


def check_separation(h: HFamily, A, f: dict):
    """None if f separates A, else the first violating pair in index order."""
    A = sorted(A)
    for i, a in enumerate(A):
        for b in A[i + 1 :]:
            if (f[a], f[b]) in h.get(a, b):
                return (a, b)
    return None


def is_separation(h: HFamily, A, f: dict) -> bool:
    return check_separation(h, A, f) is None


def exists_separation_capped(h: HFamily, A, cap: int) -> SeparationResult:
    """Brute-force oracle: try every labeling with values <= cap, in order.

    Returns the lexicographically least witness, or blocked when none works.
    GuardExceeded when there are more than ENUM_GUARD labelings to try.
    """
    A = sorted(A)
    if (cap + 1) ** len(A) > ENUM_GUARD:
        raise GuardExceeded(f"(cap+1)^|A| exceeds {ENUM_GUARD}")
    pairs = [(i, j, h.get(A[i], A[j])) for i in range(len(A)) for j in range(i + 1, len(A))]
    for values in itertools.product(range(cap + 1), repeat=len(A)):
        if all((values[i], values[j]) not in cdw for i, j, cdw in pairs):
            return SeparationResult("separated", cap, dict(zip(A, values)))
    return SeparationResult("blocked", cap)


def _pair_table(h: HFamily, A) -> list:
    """The non-empty sets S_ab of the pairs of sorted A, as (i, j, cdw) by position.

    Entries come in index order, (i, j) lexicographically.
    """
    table = []
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            cdw = h.get(A[i], A[j])
            if not cdw.is_empty:
                table.append((i, j, cdw))
    return table


def _raise_to_clear(table, values: list) -> list:
    """Raise each later label just enough to clear its pairs with earlier ones.

    Every entry (h, i) precedes every entry (i, j) in the table, so values[i]
    is final by the time its own pairs push values[j] up.
    """
    for i, j, cdw in table:
        values[j] = max(values[j], cdw.max_m_for(values[i]) + 1)
    return values


def solve_separation(h: HFamily, A, cap: int) -> SeparationResult:
    """Decide separation at the cap in closed form; same status and witness as the oracle.

    Blocked exactly when some pair has (cap, cap) in its set; the first such
    pair in index order is reported.  Otherwise the lex-least witness is built
    left to right: each label is the least value clearing the fixed earlier
    labels and, with every later label at cap, the later pairs.
    """
    A = sorted(A)
    if cap < 0 and A:
        return SeparationResult("blocked", cap)
    table = _pair_table(h, A)
    for i, j, cdw in table:
        if (cap, cap) in cdw:
            return SeparationResult("blocked", cap, pair=(A[i], A[j]))
    values = [0] * len(A)
    for i, _, cdw in table:
        values[i] = max(values[i], cdw.max_n_for(cap) + 1)
    return SeparationResult("separated", cap, dict(zip(A, _raise_to_clear(table, values))))


def min_cap(h: HFamily, A) -> int:
    """Least cap at which A is separable; finite sets always separate."""
    return max(
        (min(n, m) + 1 for _, _, cdw in _pair_table(h, sorted(A)) for n, m in cdw.staircase),
        default=0,
    )


def min_sum_labeling(h: HFamily, A) -> MinSumResult:
    """A separation minimizing the label sum; branch-and-bound when |A| is small.

    Above MIN_SUM_EXACT_LIMIT indices the greedy labeling is returned,
    flagged inexact.
    """
    A = sorted(A)
    table = _pair_table(h, A)
    greedy = _raise_to_clear(table, [0] * len(A))
    if len(A) > MIN_SUM_EXACT_LIMIT:
        return MinSumResult(dict(zip(A, greedy)), sum(greedy), False)

    outgoing = [[] for _ in A]
    for i, j, cdw in table:
        outgoing[i].append((j, cdw))
    # Above its floor, a label lowers later floors only where it passes a
    # staircase corner of one of its pairs, so only those values are tried.
    corners = [sorted({n + 1 for _, cdw in out for n, _ in cdw.staircase}) for out in outgoing]

    best_values = list(greedy)
    best_total = sum(greedy)
    values = [0] * len(A)

    def search(j: int, partial: int, floors: list):
        # floors[k] is the least label at k that clears the fixed labels before k
        nonlocal best_total, best_values
        if j == len(A):
            if partial < best_total:
                best_total, best_values = partial, values[:]
            return
        lb = floors[j]
        for v in itertools.chain((lb,), corners[j][bisect_right(corners[j], lb) :]):
            if partial + v >= best_total:
                break
            values[j] = v
            below = floors[:]
            for k, cdw in outgoing[j]:
                below[k] = max(below[k], cdw.max_m_for(v) + 1)
            # a larger v can lower the floors, so skip this v rather than stop
            if partial + v + sum(below[j + 1 :]) >= best_total:
                continue
            search(j + 1, partial + v, below)

    search(0, 0, [0] * len(A))
    return MinSumResult(dict(zip(A, best_values)), best_total, True)


def adversary_two_sets(h: HFamily, A, B, f: dict):
    """Some a in A, b in B with a < b and (f(a), f(b)) in the family, if any."""
    for a in sorted(A):
        for b in sorted(B):
            if a < b and (f[a], f[b]) in h.get(a, b):
                return (a, b)
    return None

