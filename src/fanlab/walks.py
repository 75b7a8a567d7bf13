"""Minimal walks along a C-sequence and the step-counting function rho2.

The C-sequence assigns to each successor b+1 the singleton {b} and to each
limit the range of its ladder.  A walk from b down to a repeatedly replaces
b by the least element of C_b that is >= a; rho2(a, b) is the number of
steps taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GuardExceeded
from .ordinals import LadderSystem, Ordinal

_MAX_WALK_STEPS = 100_000


@dataclass(frozen=True)
class WalkTrace:
    """Strictly decreasing trace b = steps[0] > ... > steps[-1] = a."""

    steps: tuple[Ordinal, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps) - 1


class CSequence:
    """C-sequence over a ladder system, with walks and rho2."""

    def __init__(self, ladders: LadderSystem):
        self.ladders = ladders

    def step(self, alpha: Ordinal, beta: Ordinal) -> Ordinal:
        """min(C_beta \\ alpha): the least element of C_beta that is >= alpha."""
        if alpha >= beta:
            raise DomainError(f"step needs alpha < beta, got {alpha} >= {beta}")
        if beta.is_successor:
            return beta.predecessor()
        n = self.ladders.first_index_at_least(beta, alpha)
        return self.ladders.value(beta, n)

    def walk(self, alpha: Ordinal, beta: Ordinal) -> WalkTrace:
        """The walk from beta down to alpha with every step listed.

        The trace is held in memory, so past _MAX_WALK_STEPS steps it raises
        DomainError to bound that memory; rho2 bounds only its limit steps.
        """
        if alpha > beta:
            raise DomainError(f"walk needs alpha <= beta, got {alpha} > {beta}")
        steps = [beta]
        current = beta
        while current > alpha:
            current = self.step(alpha, current)
            steps.append(current)
            if len(steps) > _MAX_WALK_STEPS:
                raise DomainError(f"walk from {beta} to {alpha} exceeded step guard")
        return WalkTrace(tuple(steps))

    def rho2(self, alpha: Ordinal, beta: Ordinal) -> int:
        """Number of walk steps from beta down to alpha; 0 when equal.

        From head + c, c finite, the walk goes down by ones to alpha = head + a
        (c - a steps) or to head (c steps), so only limit steps call step.  A
        run of limit steps has no such shortcut (w*k walks down to w in k - 1
        steps), so past _MAX_WALK_STEPS of them it raises GuardExceeded.
        """
        if alpha > beta:
            raise DomainError(f"walk needs alpha <= beta, got {alpha} > {beta}")
        count = limit_steps = 0
        current = beta
        while current > alpha:
            if current.is_limit:
                limit_steps += 1
                if limit_steps > _MAX_WALK_STEPS:
                    raise GuardExceeded(
                        f"the walk from {beta} to {alpha} takes more than "
                        f"{_MAX_WALK_STEPS} limit steps"
                    )
                current = self.step(alpha, current)
                count += 1
                continue
            c = current[-1][1]
            head = Ordinal(current[:-1])
            if alpha >= head:
                return count + c - (alpha[-1][1] if alpha > head else 0)
            current = head
            count += c
        return count
