"""Driver-side restart policy: how many epochs a job may burn.

The :class:`~repro.native.driver.NativeSorter` supervisor loop consults
a :class:`RestartPolicy` after each failed attempt.  The policy records
the failure (epoch, suspect rank, first line of the error) and answers
one question: may we try again?  The accumulated
:class:`RestartEvent` log rides into ``SortStats`` so ``--json``
reports show exactly what the job survived.
"""

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class RestartEvent:
    """One failed attempt, as surfaced in recovery reports."""

    epoch: int
    rank: Optional[int]
    error: str

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "rank": self.rank, "error": self.error}


class RestartPolicy:
    """Bounded-restart policy with a suspect-rank memory."""

    def __init__(self, max_restarts: int):
        self.max_restarts = int(max_restarts)
        self.events: List[RestartEvent] = []

    @property
    def restarts_used(self) -> int:
        return len(self.events)

    def record_failure(self, epoch: int, rank: Optional[int],
                       error: str) -> bool:
        """Log a failed attempt; return True when a restart is allowed."""
        first_line = str(error).strip().splitlines()
        self.events.append(RestartEvent(
            epoch=int(epoch),
            rank=None if rank is None else int(rank),
            error=(first_line[0] if first_line else "")[:240],
        ))
        return self.restarts_used <= self.max_restarts

    def suspects(self) -> tuple:
        """Ranks implicated by the most recent failure (best effort)."""
        if not self.events or self.events[-1].rank is None:
            return ()
        return (self.events[-1].rank,)

    def to_dicts(self) -> List[dict]:
        return [event.to_dict() for event in self.events]
