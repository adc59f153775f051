"""Time-conflict model (paper Definitions 3 and 4).

The overlap relation pairs up messages that are active at the same time;
the *potential communication contention set* compresses it into the
distinct source-destination 4-tuples that could ever contend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Tuple

from repro.model.message import Communication, Message
from repro.model.pattern import CommunicationPattern, last_pattern_memo


@dataclass(frozen=True, order=True)
class ContentionEvent:
    """A potential contention between two communications (Definition 4).

    The paper represents each event as a 4-tuple ``(s1, d1, s2, d2)``.
    Contention is symmetric, so we canonicalize the pair (``first <=
    second``) to make set intersections with the network resource
    conflict set well defined.
    """

    first: Communication
    second: Communication

    @classmethod
    def of(cls, a: Communication, b: Communication) -> "ContentionEvent":
        """Build a canonically-ordered event from two communications."""
        if b < a:
            a, b = b, a
        return cls(a, b)

    @property
    def as_4tuple(self) -> Tuple[int, int, int, int]:
        """The paper's ``(s1, d1, s2, d2)`` representation."""
        return (self.first.source, self.first.dest, self.second.source, self.second.dest)

    def involves(self, comm: Communication) -> bool:
        """Whether this event mentions ``comm``."""
        return comm in (self.first, self.second)

    def __str__(self) -> str:
        return f"{self.first}~{self.second}"


def overlap_pairs(pattern: CommunicationPattern) -> Iterator[Tuple[Message, Message]]:
    """Iterate over the overlap relation ``O`` (Definition 3).

    Yields each unordered pair of distinct messages whose closed time
    intervals intersect, using a sweep over messages sorted by start
    time so that the cost is proportional to the number of overlapping
    pairs rather than all pairs.
    """
    msgs: List[Message] = list(pattern.sorted_by_start())
    active: List[Message] = []
    for m in msgs:
        # Retire messages that finished strictly before m starts; the
        # overlap relation uses closed intervals, so equality keeps them.
        active = [a for a in active if a.t_finish >= m.t_start]
        for a in active:
            yield (a, m)
        active.append(m)


@last_pattern_memo
def potential_contention_set(pattern: CommunicationPattern) -> FrozenSet[ContentionEvent]:
    """The potential communication contention set ``C`` (Definition 4).

    Two messages of the *same* communication trivially share the whole
    path; such self-pairs carry no routing decision and are excluded,
    matching the paper's use of ``C`` (which only ever constrains pairs
    that could be separated onto different links).
    """
    events = set()
    for m1, m2 in overlap_pairs(pattern):
        c1, c2 = m1.communication, m2.communication
        if c1 != c2:
            events.add(ContentionEvent.of(c1, c2))
    return frozenset(events)


def contention_degree(pattern: CommunicationPattern) -> int:
    """Size of ``C``: a crude measure of pattern complexity.

    The paper notes that a complicated communication pattern has a
    larger potential contention set than a simple one; this helper is
    used in reports to rank benchmark complexity.
    """
    return len(potential_contention_set(pattern))
