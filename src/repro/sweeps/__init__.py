"""``repro.sweeps`` — synthetic traffic suite + saturation-sweep driver.

Three layers (see ``docs/SWEEPS.md``):

* :mod:`repro.sweeps.patterns` — the canonical synthetic destination
  patterns (uniform, tornado, transpose, bit permutations, hotspot, a
  routing-aware adversarial permutation) behind one extensible
  registry of spec strings (``"tornado"``, ``"hotspot:3:0.8"``);
* :mod:`repro.sweeps.driver` — the automated saturation sweep: walks
  injection rates, bisects around the knee, detects the saturation
  point, and fans every measurement out through the cached parallel
  eval runner so repeated sweeps are nearly free;
* :mod:`repro.sweeps.report` — schema-versioned canonical-JSON
  :class:`SaturationCurve` / :class:`SweepResult` artifacts with
  CSV/table rendering and the robustness-study degradation table.

``driver``/``report`` are imported lazily: :mod:`repro.simulator.openloop`
imports its default pattern from this package, and an eager driver
import here would close that cycle back onto a half-initialized
``openloop`` module.
"""

from __future__ import annotations

from repro.sweeps.patterns import (
    DestinationPattern,
    adversarial_pattern,
    adversarial_permutation,
    bit_complement_pattern,
    bit_reverse_pattern,
    bit_rotation_pattern,
    canonical_spec,
    hotspot_pattern,
    neighbor_pattern,
    pattern_catalog,
    pattern_entries,
    pattern_names,
    register_pattern,
    resolve_pattern,
    shuffle_pattern,
    size_violation,
    tornado_pattern,
    transpose_pattern,
    uniform_random,
)

_LAZY = {
    "CRITERIA": "repro.sweeps.driver",
    "STUDY_TOPOLOGIES": "repro.sweeps.driver",
    "SweepConfig": "repro.sweeps.driver",
    "criterion_latency": "repro.sweeps.driver",
    "detect_saturation": "repro.sweeps.driver",
    "latency_reference": "repro.sweeps.driver",
    "point_is_saturated": "repro.sweeps.driver",
    "run_sweep": "repro.sweeps.driver",
    "run_sweep_suite": "repro.sweeps.driver",
    "spare_link_variant": "repro.sweeps.driver",
    "study_topology": "repro.sweeps.driver",
    "SWEEP_SCHEMA": "repro.sweeps.report",
    "SaturationCurve": "repro.sweeps.report",
    "SweepResult": "repro.sweeps.report",
    "curve_csv": "repro.sweeps.report",
    "curve_plot": "repro.sweeps.report",
    "curve_table": "repro.sweeps.report",
    "degradation_table": "repro.sweeps.report",
}

__all__ = [
    "DestinationPattern",
    "adversarial_pattern",
    "adversarial_permutation",
    "bit_complement_pattern",
    "bit_reverse_pattern",
    "bit_rotation_pattern",
    "canonical_spec",
    "hotspot_pattern",
    "neighbor_pattern",
    "pattern_catalog",
    "pattern_entries",
    "pattern_names",
    "register_pattern",
    "resolve_pattern",
    "shuffle_pattern",
    "size_violation",
    "tornado_pattern",
    "transpose_pattern",
    "uniform_random",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
