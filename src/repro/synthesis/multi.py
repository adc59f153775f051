"""Multi-application network synthesis.

The cross-workload study (paper Section 4.2) shows a network specialized
for one benchmark can degrade others.  When the workload *set* is known
— the common case for the special-purpose systems the paper targets —
the fix is to design for the union of the applications' communication
patterns.  Applications never run concurrently on such systems, so
their patterns are placed on disjoint time ranges: cliques never span
applications, and the methodology sizes each pipe for the worst
application crossing it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.defaults import DEFAULT_RESTARTS
from repro.errors import PatternError, SynthesisError
from repro.model.message import Message
from repro.model.pattern import CommunicationPattern
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.generator import GeneratedDesign, generate_network

# Time gap inserted between consecutive applications' patterns so no
# contention period spans two applications.
_APP_GAP = 10.0


def merge_patterns(
    patterns: Sequence[CommunicationPattern],
    name: str = "",
) -> CommunicationPattern:
    """Concatenate patterns onto disjoint time ranges.

    All patterns must target the same processor count (relabel first if
    they do not).  The result's contention periods are exactly the
    union of the inputs' periods.
    """
    if not patterns:
        raise PatternError("need at least one pattern to merge")
    counts = {p.num_processes for p in patterns}
    if len(counts) != 1:
        raise PatternError(
            f"patterns target different system sizes: {sorted(counts)}; "
            "relabel them onto a common processor set first"
        )
    messages: List[Message] = []
    offset = 0.0
    for p in patterns:
        lo, hi = p.time_span
        for m in p.messages:
            messages.append(
                Message(
                    source=m.source,
                    dest=m.dest,
                    t_start=m.t_start - lo + offset,
                    t_finish=m.t_finish - lo + offset,
                    size_bytes=m.size_bytes,
                    tag=f"{p.name}:{m.tag}",
                )
            )
        offset += (hi - lo) + _APP_GAP
    return CommunicationPattern(
        messages=tuple(messages),
        num_processes=patterns[0].num_processes,
        name=name or "+".join(p.name for p in patterns),
    )


def generate_network_for_set(
    patterns: Iterable[CommunicationPattern],
    constraints: Optional[DesignConstraints] = None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> GeneratedDesign:
    """Synthesize one network serving every pattern contention-free.

    The returned design's certificate covers the merged pattern; since
    the merge preserves each application's contention periods, the
    network is contention-free for each application individually.
    """
    merged = merge_patterns(list(patterns))
    design = generate_network(
        merged, constraints=constraints, seed=seed, restarts=restarts
    )
    if not design.certificate.contention_free:
        raise SynthesisError(
            f"merged design for {merged.name!r} failed its certificate: "
            f"{design.certificate.violations[:3]}"
        )
    return design
