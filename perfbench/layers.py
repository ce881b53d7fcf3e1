"""The traced layers: which rorrlab functions get a span, and which
per-layer metrics each span yields.

This module imports nothing heavy, so the benchmark definition
(spec.py) can read the metric list without loading numpy or rorrlab.
Each entry names a span, the functions it wraps (dotted paths inside
the rorrlab package), the statistics it reports, and, where a statistic
needs the call's arguments or result, a function that measures it.

Statistics:
    calls           spans recorded under the name
    self_s          span time minus the time of spans nested inside it
    wall_s          span time including nested spans
    rows / coeffs   summed amount measured on each call
    distinct_ratio  distinct argument keys / calls (0 when never called)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]
    stats: tuple[str, ...]
    # measure(bound_arguments, result) -> (amount, key); key None when unused
    measure: Callable | None = None


def _haar(a, _result):
    return 0, (a["n"], a["seed"])


def _duk_batch(a, _result):
    u = a["u"]
    return a["count"], (u.n, u.seed, a["k"], a["count"], a["seed"])


def _uniform_batch(a, _result):
    return a["count"], (a["k"], a["n"], a["count"], a["seed"])


def _batch_rows(a, _result):
    return a["batch"].shape[0], None


def _coeff_count(_a, result):
    return len(result.coeffs), None


# The twelve acceptance checks, as named in rorrlab.verify.CHECK_NAMES.
VERIFY_CHECKS = (
    "quantum_identity",
    "sign_correlation",
    "expected_phi",
    "uniform_variance",
    "moment_structure",
    "fourier_decomposition",
    "level_bounds",
    "address_exactness",
    "goodness",
    "tail_bounds",
    "distinguishing_sanity",
    "determinism",
)

LAYERS: tuple[Layer, ...] = (
    Layer("ortho.sample_haar", ("ortho.sample_haar",),
          ("calls", "distinct_ratio", "self_s"), _haar),
    Layer("ortho.gram_check", ("ortho.OrthogonalMatrix.orthogonality_error",),
          ("calls", "self_s")),
    Layer("ortho.spectral_norm", ("ortho.spectral_norm",), ("calls", "self_s")),
    Layer("ortho.check_goodness", ("ortho.check_goodness",), ("self_s",)),
    Layer("ortho.load_matrix", ("ortho.load_matrix",), ("self_s",)),
    Layer("ortho.save_matrix", ("ortho.save_matrix",), ("self_s",)),
    Layer("ortho.bilinear_tail_check", ("ortho.bilinear_tail_check",), ("self_s",)),
    Layer("dist.sample_duk_batch", ("dist.sample_duk_batch",),
          ("rows", "distinct_ratio", "self_s"), _duk_batch),
    Layer("dist.sample_uniform_batch", ("dist.sample_uniform_batch",),
          ("rows", "distinct_ratio", "self_s"), _uniform_batch),
    Layer("dist.u_tilde_mc", ("dist.u_tilde_mc",), ("calls", "self_s")),
    Layer("dist.moment_bound_audit", ("dist.moment_bound_audit",), ("self_s",)),
    Layer("distinguish.evaluate_batch", ("distinguish.evaluate_batch",),
          ("rows", "self_s"), _batch_rows),
    Layer("distinguish.standard_corpus", ("distinguish.standard_corpus",), ("self_s",)),
    Layer("dtree.sparse_fourier", ("dtree.sparse_fourier",),
          ("calls", "coeffs", "self_s"), _coeff_count),
    Layer("dtree.tree_from_json", ("dtree.tree_from_json",), ("self_s",)),
    Layer("dtree.decomposition_sides", ("dtree.decomposition_sides",), ("calls", "self_s")),
    Layer("dtree.random_tree", ("dtree.random_tree",), ("self_s",)),
    Layer("boolfn.spectrum_to_json", ("boolfn.spectrum_to_json",), ("self_s",)),
    Layer("boolfn.l1_level", ("boolfn.l1_level",), ("self_s",)),
    Layer("rorrelation.phi", ("rorrelation.phi",), ("calls", "self_s")),
    Layer("rorrelation.phi_batch", ("rorrelation.phi_batch",),
          ("rows", "self_s"), _batch_rows),
    Layer("rorrelation.exact_moments",
          ("rorrelation.exact_expected_phi", "rorrelation.exact_uniform_variance"),
          ("self_s",)),
    Layer("rorrelation.instance_io",
          ("rorrelation.save_instances", "rorrelation.load_instances"), ("self_s",)),
    Layer("qsim.simulate_circuit", ("qsim.simulate_circuit",), ("calls", "self_s")),
    *(Layer(f"verify.{check}", (f"verify.check:{check}",), ("wall_s",))
      for check in VERIFY_CHECKS),
    Layer("cli", ("cli.main",), ("commands", "self_s")),
)

# Measured around each round by the worker rather than by a span.
PROCESS_METRICS = (("proc.cpu_s", "s", "lower"),)

_UNITS = {"calls": "count", "commands": "count", "rows": "count", "coeffs": "count",
          "distinct_ratio": "ratio", "self_s": "s", "wall_s": "s"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    rows = []
    for layer in LAYERS:
        for stat in layer.stats:
            better = "higher" if stat == "distinct_ratio" else "lower"
            rows.append((f"{layer.name}.{stat}", _UNITS[stat], better))
    rows.extend(PROCESS_METRICS)
    return rows
