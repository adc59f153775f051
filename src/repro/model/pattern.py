"""Communication patterns (paper Definitions 1 and 2).

A :class:`CommunicationPattern` is the set of all messages an
application passes between its processes, together with the number of
processors of the system the application maps onto.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, TypeVar

from repro.errors import PatternError
from repro.model.message import Communication, Message


@dataclass(frozen=True)
class CommunicationPattern:
    """The communication pattern of an application.

    Attributes:
        messages: every message exchanged, in no particular order.
        num_processes: number of processors ``|P|``; all message
            endpoints must lie in ``range(num_processes)``.
        name: label used in reports (e.g. ``"CG-16"``).
    """

    messages: Tuple[Message, ...]
    num_processes: int
    name: str = "pattern"

    def __post_init__(self) -> None:
        if self.num_processes <= 0:
            raise PatternError(
                f"pattern needs a positive process count, got {self.num_processes}"
            )
        for m in self.messages:
            if m.source >= self.num_processes or m.dest >= self.num_processes:
                raise PatternError(
                    f"message {m.source}->{m.dest} references a processor outside "
                    f"range(0, {self.num_processes})"
                )

    @classmethod
    def from_messages(
        cls,
        messages: Iterable[Message],
        num_processes: int = 0,
        name: str = "pattern",
    ) -> "CommunicationPattern":
        """Build a pattern, inferring the process count if not given."""
        msgs = tuple(messages)
        if num_processes == 0:
            if not msgs:
                raise PatternError("cannot infer process count from an empty pattern")
            num_processes = 1 + max(max(m.source, m.dest) for m in msgs)
        return cls(messages=msgs, num_processes=num_processes, name=name)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    @property
    def communications(self) -> FrozenSet[Communication]:
        """Distinct (source, dest) pairs appearing in the pattern."""
        return frozenset(m.communication for m in self.messages)

    @property
    def time_span(self) -> Tuple[float, float]:
        """Earliest start and latest finish over all messages."""
        if not self.messages:
            return (0.0, 0.0)
        return (
            min(m.t_start for m in self.messages),
            max(m.t_finish for m in self.messages),
        )

    @property
    def total_bytes(self) -> int:
        """Sum of all message payload sizes."""
        return sum(m.size_bytes for m in self.messages)

    def messages_by_communication(self) -> Dict[Communication, Tuple[Message, ...]]:
        """Group messages by their (source, dest) pair."""
        groups: Dict[Communication, list] = {}
        for m in self.messages:
            groups.setdefault(m.communication, []).append(m)
        return {c: tuple(ms) for c, ms in groups.items()}

    def filter(self, predicate: Callable[[Message], bool]) -> "CommunicationPattern":
        """A new pattern containing only messages matching ``predicate``."""
        return CommunicationPattern(
            messages=tuple(m for m in self.messages if predicate(m)),
            num_processes=self.num_processes,
            name=self.name,
        )

    def restrict_to(self, processes: Iterable[int]) -> "CommunicationPattern":
        """Keep only messages whose endpoints are both in ``processes``."""
        keep = set(processes)
        return self.filter(lambda m: m.source in keep and m.dest in keep)

    def relabel(self, mapping: Dict[int, int], num_processes: int = 0) -> "CommunicationPattern":
        """Rename processors according to ``mapping``.

        Every endpoint appearing in the pattern must be a key of
        ``mapping``; unmapped processors raise :class:`PatternError`.
        """
        new_messages = []
        for m in self.messages:
            if m.source not in mapping or m.dest not in mapping:
                raise PatternError(
                    f"relabel mapping misses endpoint of message {m.source}->{m.dest}"
                )
            new_messages.append(
                Message(
                    source=mapping[m.source],
                    dest=mapping[m.dest],
                    t_start=m.t_start,
                    t_finish=m.t_finish,
                    size_bytes=m.size_bytes,
                    tag=m.tag,
                )
            )
        if num_processes == 0:
            num_processes = self.num_processes
        return CommunicationPattern(
            messages=tuple(new_messages), num_processes=num_processes, name=self.name
        )

    def merged_with(self, other: "CommunicationPattern", name: str = "") -> "CommunicationPattern":
        """Union of two patterns over the larger of the two systems."""
        return CommunicationPattern(
            messages=self.messages + other.messages,
            num_processes=max(self.num_processes, other.num_processes),
            name=name or f"{self.name}+{other.name}",
        )

    def sorted_by_start(self) -> Sequence[Message]:
        """Messages ordered by start time (finish time as tie-break)."""
        return sorted(self.messages, key=lambda m: (m.t_start, m.t_finish, m.source, m.dest))


T = TypeVar("T")


def last_pattern_memo(
    fn: Callable[["CommunicationPattern"], T],
) -> Callable[["CommunicationPattern"], T]:
    """Keep ``fn``'s result for the last pattern object it was called on.

    For pure, pattern-only analyses whose result is immutable: the
    seeds of one synthesis portfolio and the rehydrated winner all pass
    the same pattern object, so they share one analysis instead of
    repeating it per seed.  The hit test is object identity (a
    structural hash of thousands of messages would cost more than it
    saves), and only one entry is kept, so the memo never grows.
    """
    last: Optional[Tuple["CommunicationPattern", T]] = None

    @functools.wraps(fn)
    def memoized(pattern: "CommunicationPattern") -> T:
        nonlocal last
        hit = last
        if hit is not None and hit[0] is pattern:
            return hit[1]
        result = fn(pattern)
        last = (pattern, result)
        return result

    return memoized
