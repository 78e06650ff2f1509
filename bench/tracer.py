"""Per-layer tracing installed from outside the program.

Wrappers go around the public functions of each ``heckepairs`` module (the
layers) and record one span per call.  Open spans live on an in-memory
stack; when a span closes, its duration minus the time of its child spans is
its self time, and it is folded into per-layer accumulators.  Nothing is
written until the run ends and ``layer_metrics`` is called.

A wrapper replaces the name in every ``heckepairs`` module namespace that
holds the same function object (``transform_lattice`` is imported into
``grouppair`` and ``tower``; ``double_coset`` resolves through the
``cosets`` globals), and methods are replaced on their class.  Per-element
calls such as ``ResidueRing.mat_mul`` are deliberately not wrapped.  A name
that no longer exists is skipped, and the metrics of a layer with no
resolvable name are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

# (layer, module, attribute); several attributes may feed one layer
TARGETS = (
    ("arith.from_basis", "heckepairs.arith", "Lattice.from_basis"),
    ("arith.transform_lattice", "heckepairs.arith", "transform_lattice"),
    ("arith.close_under_mul", "heckepairs.arith", "ResidueRing.close_under_mul"),
    ("grouppair.canon_coset", "heckepairs.grouppair", "PairDescriptor.canon_coset"),
    ("grouppair.mul", "heckepairs.grouppair", "PairDescriptor.mul"),
    ("grouppair.r_image_mod", "heckepairs.grouppair", "r_image_mod"),
    ("grouppair.reports", "heckepairs.grouppair", "hecke_indices_report"),
    ("grouppair.reports", "heckepairs.grouppair", "reduced_stage_report"),
    ("grouppair.reports", "heckepairs.grouppair", "stabilizer_identities_report"),
    ("grouppair.reports", "heckepairs.grouppair", "downward_directed_report"),
    ("cosets.double_coset", "heckepairs.cosets", "double_coset"),
    ("cosets.convolve", "heckepairs.cosets", "convolve"),
    ("cosets.involution", "heckepairs.cosets", "involution"),
    ("tower.build_stage", "heckepairs.tower", "build_stage"),
    ("tower.verify_stage_invariants", "heckepairs.tower", "verify_stage_invariants"),
    ("tower.connecting_verify", "heckepairs.tower", "ConnectingMap.verify"),
    ("families.split", "heckepairs.families", "split_padic"),
    ("families.split", "heckepairs.families", "split_global"),
    ("families.slpm", "heckepairs.families", "slpm_surjectivity"),
    ("families.units", "heckepairs.families", "unit_image_gap"),
    ("families.heis_orbit", "heckepairs.families", "heis_orbit"),
)

# per-layer metrics in output order: (name, unit); "count" and "B" metrics
# are operation counts and must repeat exactly from run to run
METRICS = (
    ("arith.from_basis.calls", "count"),
    ("arith.from_basis.self_s", "s"),
    ("arith.transform_lattice.calls", "count"),
    ("arith.transform_lattice.self_s", "s"),
    ("arith.close_under_mul.calls", "count"),
    ("arith.close_under_mul.self_s", "s"),
    ("arith.close_under_mul.elements", "count"),
    ("grouppair.canon_coset.calls", "count"),
    ("grouppair.canon_coset.self_s", "s"),
    ("grouppair.canon_coset.us_per_call", "us"),
    ("grouppair.mul.calls", "count"),
    ("grouppair.mul.self_s", "s"),
    ("grouppair.r_image_mod.calls", "count"),
    ("grouppair.r_image_mod.self_s", "s"),
    ("grouppair.reports.self_s", "s"),
    ("cosets.double_coset.calls", "count"),
    ("cosets.double_coset.self_s", "s"),
    ("cosets.double_coset.memo_hit_ratio", "ratio"),
    ("cosets.bfs.cosets", "count"),
    ("cosets.bfs.useful_ratio", "ratio"),
    ("cosets.convolve.calls", "count"),
    ("cosets.convolve.self_s", "s"),
    ("cosets.convolve.products", "count"),
    ("cosets.involution.self_s", "s"),
    ("tower.build_stage.calls", "count"),
    ("tower.build_stage.self_s", "s"),
    ("tower.build_stage.order", "count"),
    ("tower.build_stage.rejected", "count"),
    ("tower.build_stage.rejected_s", "s"),
    ("tower.verify_stage_invariants.self_s", "s"),
    ("tower.connecting_verify.calls", "count"),
    ("tower.connecting_verify.self_s", "s"),
    ("tower.connecting_verify.elements", "count"),
    ("families.split.self_s", "s"),
    ("families.slpm.self_s", "s"),
    ("families.units.self_s", "s"),
    ("families.heis_orbit.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)
COUNT_UNITS = ("count", "B")

# frame slots of an open span
_CHILD_S, _MULS, _CANONS = 0, 1, 2


def _count_mul(stats, stack, frame, args, result, error, dur):
    if stack:
        stack[-1][_MULS] += 1


def _count_canon(stats, stack, frame, args, result, error, dur):
    if stack:
        stack[-1][_CANONS] += 1


def _double_coset(stats, stack, frame, args, result, error, dur):
    # a memo hit enumerates nothing, so it multiplies no group elements
    if frame[_MULS] == 0:
        stats["cosets.double_coset.hits"] += 1
    elif result is not None:
        stats["cosets.bfs.cosets"] += len(result.left_reps)
        stats["cosets.bfs.canon_calls"] += frame[_CANONS]


def _convolve(stats, stack, frame, args, result, error, dur):
    stats["cosets.convolve.products"] += frame[_MULS]


def _closure(stats, stack, frame, args, result, error, dur):
    if result is not None:
        stats["arith.close_under_mul.elements"] += len(result)


def _build_stage(stats, stack, frame, args, result, error, dur):
    if error is not None:
        stats["tower.build_stage.rejected"] += 1
        stats["tower.build_stage.rejected_s"] += dur
    else:
        stats["tower.build_stage.order"] += result.order


def _connecting_verify(stats, stack, frame, args, result, error, dur):
    stats["tower.connecting_verify.elements"] += args[0].fine.order


HOOKS = {
    "grouppair.mul": _count_mul,
    "grouppair.canon_coset": _count_canon,
    "cosets.double_coset": _double_coset,
    "cosets.convolve": _convolve,
    "arith.close_under_mul": _closure,
    "tower.build_stage": _build_stage,
    "tower.connecting_verify": _connecting_verify,
}


class Tracer:
    """Span stack and per-layer accumulators for one process."""

    def __init__(self):
        self.stack: list = []
        self.stats: Counter = Counter()
        self._restore: list = []
        self.layers: set = set()

    def wrap(self, layer: str, fn):
        """``fn`` with a span named ``layer`` around every call."""
        stack, stats = self.stack, self.stats
        calls, self_key, total_key = f"{layer}.calls", f"{layer}.self_s", f"{layer}.total_s"
        hook = HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0, 0]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][_CHILD_S] += dur
                stats[calls] += 1
                stats[self_key] += dur - frame[_CHILD_S]
                stats[total_key] += dur
                if hook is not None:
                    hook(stats, stack, frame, args, result, error, dur)

        return traced

    def install(self) -> None:
        """Wrap every resolvable target of the imported ``heckepairs``."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "heckepairs" or name.startswith("heckepairs.")]
        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = inspect.getattr_static(cls, name, None) if cls else None
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    setattr(cls, name, staticmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(cls, name, self.wrap(layer, raw))
                self._restore.append((cls, name, raw))
            else:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                traced = self.wrap(layer, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, orig))
            self.layers.add(layer)

    @property
    def absent(self) -> set:
        """Layers none of whose target names could be resolved."""
        return {layer for layer, _, _ in TARGETS} - self.layers

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()


def layer_metrics(passes: list, absent: set, overhead_ratio: float) -> dict:
    """Per-layer metrics from the accumulators of each traced pass: counts
    are the low median over passes (they repeat exactly), times the median.
    Metrics of the layers in ``absent`` are left out."""
    def count(key):
        return statistics.median_low(p[key] for p in passes)

    def seconds(key):
        return statistics.median(p[key] for p in passes)

    def ratio(num, den):
        d = count(den)
        return count(num) / d if d else 0.0

    def us_per_call(layer):
        return statistics.median(p[f"{layer}.total_s"] / p[f"{layer}.calls"] * 1e6
                                 if p[f"{layer}.calls"] else 0.0 for p in passes)

    derived = {
        "grouppair.canon_coset.us_per_call": lambda: us_per_call("grouppair.canon_coset"),
        "cosets.double_coset.memo_hit_ratio":
            lambda: ratio("cosets.double_coset.hits", "cosets.double_coset.calls"),
        "cosets.bfs.useful_ratio":
            lambda: ratio("cosets.bfs.cosets", "cosets.bfs.canon_calls"),
        "trace.overhead_ratio": lambda: overhead_ratio,
    }
    out = {}
    for name, unit in METRICS:
        owner = name.rsplit(".", 1)[0]
        if owner == "cosets.bfs":
            owner = "cosets.double_coset"
        if owner in absent:
            continue
        if name in derived:
            value = derived[name]()
        elif unit in COUNT_UNITS:
            value = count(name)
        else:
            value = seconds(name)
        out[name] = {"value": value, "unit": unit}
    return out
