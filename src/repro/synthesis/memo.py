"""Content-keyed memoization for pipe coloring (the synthesis hot path).

The move-evaluation loops of :mod:`repro.synthesis.moves` and the
global reroute passes revisit the same pipe *contents* constantly: a
candidate move is proposed, scored, reverted, and a later step lands on
the identical (forward, backward) communication sets again.  Clique
enumeration over those sets is pure — a function of the communication
set and the pattern's maximum cliques only — so both the ``Fast_Color``
bound and the exact finalization coloring are memoized here, keyed by
the frozen communication set itself.

One :class:`ColorMemo` is shared by a whole synthesis run (across
pipes, transaction reverts, annealing steps, and re-partitioning
rounds).  The directional ``Fast_Color`` bound is cached per direction,
so symmetric pipes and pipes that swap orientations share entries.
Entries are bounded with a generous cap (insertion-order eviction); the
distinct pipe contents of a 64-node run stay below it, but the bound
keeps larger workloads from growing without limit.  Recency is *not*
tracked per hit — hits are the hot path.  Eviction pops the oldest
entry of an :class:`~collections.OrderedDict` in O(1); a plain dict
deleted from the front scans past its deleted slots to find the first
live key, tens of microseconds per eviction on a full 256-node cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import AbstractSet, Any, Dict, FrozenSet, Sequence, Tuple

from repro.model.cliques import Clique
from repro.model.message import Communication
from repro.synthesis.coloring import exact_coloring
from repro.synthesis.conflict_graph import build_conflict_graph
from repro.synthesis.fast_color import fast_color_directional

#: Default bound per cache, above the distinct pipe contents of a
#: 64-node synthesis run.
DEFAULT_MAXSIZE = 65536

_FrozenComms = FrozenSet[Communication]


def _store(
    cache: OrderedDict[_FrozenComms, Any], key: _FrozenComms, value: Any, maxsize: int
) -> None:
    """Insert a new entry, evicting the oldest one past ``maxsize``."""
    cache[key] = value
    if len(cache) > maxsize:
        cache.popitem(last=False)


class ColorMemo:
    """Bounded caches for the directional ``Fast_Color`` bound and the
    exact finalization coloring, keyed by communication-set content.

    Both caches are pure with respect to their key because the
    communication maximum clique set is fixed for the pattern the memo
    serves; one memo must never be shared between different analyses.
    Hit/miss counts are exposed so the partitioner can report them
    through the observability registry.
    """

    __slots__ = (
        "max_cliques",
        "maxsize",
        "fast_hits",
        "fast_misses",
        "exact_hits",
        "exact_misses",
        "_fast",
        "_exact",
    )

    def __init__(
        self, max_cliques: Sequence[Clique], maxsize: int = DEFAULT_MAXSIZE
    ) -> None:
        self.max_cliques = max_cliques
        self.maxsize = maxsize
        self.fast_hits = 0
        self.fast_misses = 0
        self.exact_hits = 0
        self.exact_misses = 0
        self._fast: OrderedDict[_FrozenComms, int] = OrderedDict()
        self._exact: OrderedDict[_FrozenComms, Tuple[int, Dict[Communication, int]]] = (
            OrderedDict()
        )

    # -- Fast_Color -----------------------------------------------------

    def fast_directional(self, comms: AbstractSet[Communication]) -> int:
        """Memoized ``max_K |K ∩ comms|`` over the pattern's cliques."""
        key = comms if type(comms) is frozenset else frozenset(comms)
        cached = self._fast.get(key)
        if cached is not None:
            self.fast_hits += 1
            return cached
        self.fast_misses += 1
        value = fast_color_directional(key, self.max_cliques)
        _store(self._fast, key, value, self.maxsize)
        return value

    def fast(
        self,
        forward: AbstractSet[Communication],
        backward: AbstractSet[Communication],
    ) -> int:
        """Memoized ``Fast_Color`` of a pipe: the max of the two
        directional bounds (exactly :func:`repro.synthesis.fast_color
        .fast_color`)."""
        return max(self.fast_directional(forward), self.fast_directional(backward))

    def fast_pair(
        self,
        forward: _FrozenComms,
        backward: _FrozenComms,
    ) -> int:
        """:meth:`fast` for already-frozen directional sets — the
        estimate-refresh hot path, with the per-direction lookups
        inlined."""
        cache = self._fast
        a = cache.get(forward)
        if a is None:
            self.fast_misses += 1
            a = fast_color_directional(forward, self.max_cliques)
            _store(cache, forward, a, self.maxsize)
        else:
            self.fast_hits += 1
        b = cache.get(backward)
        if b is None:
            self.fast_misses += 1
            b = fast_color_directional(backward, self.max_cliques)
            _store(cache, backward, b, self.maxsize)
        else:
            self.fast_hits += 1
        return a if a >= b else b

    # -- exact coloring -------------------------------------------------

    def exact(
        self, comms: AbstractSet[Communication]
    ) -> Tuple[int, Dict[Communication, int]]:
        """Memoized exact coloring of one direction's conflict graph.

        Returns ``(chromatic number, coloring)``; the coloring is a
        fresh dict per call so callers may store or mutate it freely.
        """
        key = comms if type(comms) is frozenset else frozenset(comms)
        cached = self._exact.get(key)
        if cached is not None:
            self.exact_hits += 1
            return cached[0], dict(cached[1])
        self.exact_misses += 1
        k, colors = exact_coloring(build_conflict_graph(key, self.max_cliques))
        _store(self._exact, key, (k, colors), self.maxsize)
        return k, dict(colors)
