"""Restart policy: how many epochs a job may burn.

Both supervisors — the :class:`~repro.native.driver.NativeSorter` loop
and the sort service's scheduler — take one step after each failed
attempt, :meth:`RestartPolicy.retry`.  The policy records the failure
(epoch, suspect rank, first line of the error) and answers one
question: may we try again, and with which job?  The accumulated
:class:`RestartEvent` log rides into ``SortStats`` so ``--json``
reports show exactly what the job survived.
"""

from dataclasses import dataclass, replace
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

    def retry(self, job, error):
        """The next attempt after ``job`` failed with ``error``, or None.

        Only a checkpointing job restarts: the failure is recorded and,
        while the budget allows, the job runs again at ``epoch + 1`` with
        the rank ``error`` implicates suspect (it CRC-verifies its
        retained spill state before it resumes)."""
        if not job.checkpointing or not self.record_failure(
            job.epoch, error.rank, str(error)
        ):
            return None
        return replace(
            job, epoch=job.epoch + 1, suspect_ranks=self.suspects()
        )

    def suspects(self) -> tuple:
        """Ranks implicated by the most recent failure (best effort)."""
        if not self.events or self.events[-1].rank is None:
            return ()
        return (self.events[-1].rank,)

    def to_dicts(self) -> List[dict]:
        return [event.to_dict() for event in self.events]
