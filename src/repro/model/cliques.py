"""Contention periods and communication clique sets (paper Definition 5).

A *potential contention period* is a maximal stretch of time during
which no message begins or ends; the messages active during it mutually
overlap and therefore form a clique of the overlap relation.  The
*communication clique set* collects the communication of every such
clique; the *maximum clique set* drops cliques covered by larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.model.contention import ContentionEvent
from repro.model.message import Communication
from repro.model.pattern import CommunicationPattern, last_pattern_memo

Clique = FrozenSet[Communication]


@dataclass(frozen=True)
class ContentionPeriod:
    """One potential contention period.

    Attributes:
        t_start: beginning of the period.
        t_end: end of the period.
        clique: communications of the messages active throughout it.
    """

    t_start: float
    t_end: float
    clique: Clique

    def __len__(self) -> int:
        return len(self.clique)


def contention_periods(pattern: CommunicationPattern) -> List[ContentionPeriod]:
    """Extract every potential contention period of a pattern.

    Definition 5 quantifies over every real time ``t``; the set of
    messages active at ``t`` forms a clique of the overlap relation.
    The active set only changes at message start/finish times, so the
    sweep emits one clique per event *point* (covering messages that
    touch only at a boundary, and instantaneous messages) and one per
    elementary *interval* between consecutive events, then merges
    adjacent periods with identical cliques.  Empty cliques are skipped.
    """
    if not pattern.messages:
        return []
    times = sorted({t for m in pattern.messages for t in (m.t_start, m.t_finish)})
    msgs = pattern.sorted_by_start()

    segments: List[Tuple[float, float, Clique]] = []
    for i, t in enumerate(times):
        at_point = frozenset(
            m.communication for m in msgs if m.t_start <= t <= m.t_finish
        )
        segments.append((t, t, at_point))
        if i + 1 < len(times):
            t2 = times[i + 1]
            # Active throughout (t, t2): every message boundary is an
            # event time, so Tf >= t2 iff the message outlives the gap.
            in_interval = frozenset(
                m.communication for m in msgs if m.t_start <= t and m.t_finish >= t2
            )
            segments.append((t, t2, in_interval))

    periods: List[ContentionPeriod] = []
    for lo, hi, clique in segments:
        if not clique:
            continue
        if periods and periods[-1].clique == clique and periods[-1].t_end >= lo:
            periods[-1] = ContentionPeriod(
                t_start=periods[-1].t_start, t_end=hi, clique=clique
            )
        else:
            periods.append(ContentionPeriod(t_start=lo, t_end=hi, clique=clique))
    return periods


def clique_set(pattern: CommunicationPattern) -> FrozenSet[Clique]:
    """The communication clique set ``K`` (Definition 5)."""
    return frozenset(p.clique for p in contention_periods(pattern))


def maximum_clique_set(cliques: Iterable[Clique]) -> Tuple[Clique, ...]:
    """Remove cliques covered by a superset clique.

    A network contention-free for a clique is contention-free for all of
    its sub-cliques, so only maximal cliques constrain the design.  The
    result is sorted (largest first, then lexicographically) so that the
    synthesis algorithms behave deterministically.
    """
    unique = sorted(set(cliques), key=lambda c: (-len(c), sorted(c)))
    maximal: List[Clique] = []
    for c in unique:
        if not any(c < kept for kept in maximal):
            maximal.append(c)
    return tuple(maximal)


@dataclass(frozen=True)
class CliqueAnalysis:
    """Everything the design methodology needs to know about a pattern.

    Attributes:
        pattern: the analyzed communication pattern.
        periods: every potential contention period, in time order.
        max_cliques: the communication maximum clique set.
    """

    pattern: CommunicationPattern
    periods: Tuple[ContentionPeriod, ...]
    max_cliques: Tuple[Clique, ...]

    @classmethod
    def of(cls, pattern: CommunicationPattern) -> "CliqueAnalysis":
        """Run the full clique analysis of Definition 5 on a pattern
        (shared while the same pattern object is analyzed again)."""
        return _analyze(pattern)

    @property
    def communications(self) -> FrozenSet[Communication]:
        """Union of all communications over all cliques."""
        out = set()
        for c in self.max_cliques:
            out |= c
        return frozenset(out)

    @property
    def largest_clique_size(self) -> int:
        """Size of the widest permutation the pattern ever forms."""
        return max((len(c) for c in self.max_cliques), default=0)

    def cliques_containing(self, comm: Communication) -> Tuple[Clique, ...]:
        """Maximal cliques in which ``comm`` participates."""
        return tuple(c for c in self.max_cliques if comm in c)

    def contention_events(self) -> FrozenSet[ContentionEvent]:
        """Potential contention set ``C`` induced by the cliques.

        Equivalent to :func:`repro.model.contention.potential_contention_set`
        (every pair inside a clique overlaps in time), but computed from
        the compressed clique representation.
        """
        events = set()
        for clique in self.max_cliques:
            members = sorted(clique)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    events.add(ContentionEvent.of(a, b))
        return frozenset(events)

    def conflicting_pairs_by_comm(self) -> Dict[Communication, FrozenSet[Communication]]:
        """For each communication, the set it potentially contends with."""
        out: Dict[Communication, set] = {}
        for clique in self.max_cliques:
            for a in clique:
                out.setdefault(a, set()).update(c for c in clique if c != a)
        return {k: frozenset(v) for k, v in out.items()}


@last_pattern_memo
def _analyze(pattern: CommunicationPattern) -> CliqueAnalysis:
    periods = tuple(contention_periods(pattern))
    return CliqueAnalysis(
        pattern=pattern,
        periods=periods,
        max_cliques=maximum_clique_set(p.clique for p in periods),
    )


def permutation_violations(cliques: Iterable[Clique]) -> List[Tuple[Clique, str]]:
    """Cliques that are not partial permutations.

    Definition 5 observes that each contention period "represents a
    permutation or partial permutation": within one period every
    processor sends at most one message and receives at most one.  A
    period violating this cannot be contention-free on *any* network
    with a single injection/ejection link per processor, so the design
    methodology rejects such patterns up front.  Returns the offending
    cliques with a human-readable reason.
    """
    out: List[Tuple[Clique, str]] = []
    for clique in cliques:
        sources = [c.source for c in clique]
        dests = [c.dest for c in clique]
        dup_src = {s for s in sources if sources.count(s) > 1}
        dup_dst = {d for d in dests if dests.count(d) > 1}
        if dup_src or dup_dst:
            parts = []
            if dup_src:
                parts.append(f"processors {sorted(dup_src)} send more than once")
            if dup_dst:
                parts.append(f"processors {sorted(dup_dst)} receive more than once")
            out.append((clique, "; ".join(parts)))
    return out


def describe_periods(periods: Sequence[ContentionPeriod]) -> str:
    """Human-readable multi-line dump of contention periods."""
    lines = []
    for i, p in enumerate(periods, start=1):
        comms = " ".join(str(c) for c in sorted(p.clique))
        lines.append(f"period {i}: [{p.t_start:g}, {p.t_end:g}] {{{comms}}}")
    return "\n".join(lines)
