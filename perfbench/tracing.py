"""Timing wrappers around the program's public functions, and what the
benchmark derives from the spans they record.

The wrappers live here, not in the program: ``Tracer.install`` replaces
each traced function at every binding site inside ``agenda_algebra`` (a
name copied by ``from ... import`` is its own binding) and each traced
method on its class, and ``uninstall`` puts the originals back.  Spans
are kept in flat arrays while the run lasts and written out when it
ends; the per-layer metrics are then computed from the written file.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "scenario",
    "features",
    "lattice",
    "partitions",
    "hetero",
    "coalitions",
    "logic.terms",
    "logic.frames",
    "logic.conditions",
    "logic.correspondence",
)

HETERO_FUNCTIONS = (
    "common_agenda", "distributed_agenda", "subst_transform", "br_transform",
    "residual_second", "vartriangle", "star", "brB", "blacksquare",
)
# HeteroAlgebra operators whose cache misses call a hetero function
HETERO_OPS = (
    "diamond", "rhd", "pdra", "eqless", "br", "triangle", "blacksquare",
    "star", "brB",
)

# span name -> (module, attribute or Class.method)
TARGETS = {
    "scenario.load_scenario": ("scenario", "load_scenario"),
    "scenario.build_structure": ("scenario", "build_structure"),
    "scenario.analyze": ("scenario", "analyze"),
    "features.build_space": ("features", "build_space"),
    "features.threshold_issue": ("features", "threshold_issue"),
    "features.threshold_issues_for": ("features", "threshold_issues_for"),
    "features.achievable_sums": ("features", "achievable_sums"),
    "features.rule_preorder": ("features", "rule_preorder"),
    "features.decide": ("features", "decide"),
    "features.sum_decomposition_check": (
        "features", "sum_decomposition_check"),
    "features.sum_agenda": ("features", "sum_agenda"),
    "features.meet_agendas": ("features", "meet_agendas"),
    "lattice.build_lattice": ("lattice", "build_lattice"),
    "lattice.d_join": ("lattice", "AgendaLattice.d_join"),
    "lattice.member_form": ("lattice", "AgendaLattice.member_form"),
    "lattice.is_distributive": ("lattice", "AgendaLattice.is_distributive"),
    "lattice.covers": ("lattice", "AgendaLattice.covers"),
    "lattice.issues_meet_prime": (
        "lattice", "AgendaLattice.issues_meet_prime"),
    "lattice.is_complemented": ("lattice", "AgendaLattice.is_complemented"),
    "lattice.candidate_set_C": ("lattice", "candidate_set_C"),
    "partitions.meet": ("partitions", "meet"),
    "partitions.refines": ("partitions", "refines"),
    "partitions.prefers": ("partitions", "prefers"),
    **{f"hetero.{f}": ("hetero", f) for f in HETERO_FUNCTIONS},
    **{
        f"hetero.HeteroAlgebra.{op}": ("hetero", f"HeteroAlgebra.{op}")
        for op in HETERO_OPS
    },
    "coalitions.influence_diamond": ("coalitions", "influence_diamond"),
    "coalitions.influence_box": ("coalitions", "influence_box"),
    "logic.terms.check_validity": ("logic.terms", "check_validity"),
    "logic.terms.check_flat_validity": ("logic.terms", "check_flat_validity"),
    "logic.terms.holds": ("logic.terms", "holds"),
    "logic.correspondence.term_family": ("logic.correspondence", "term_family"),
    "logic.correspondence.bounded_modal_equivalence": (
        "logic.correspondence", "bounded_modal_equivalence"),
    "logic.correspondence.correspondence_pair": (
        "logic.correspondence", "correspondence_pair"),
    "logic.conditions.check_condition": ("logic.conditions", "check_condition"),
    "logic.frames.FrameAlgebra": ("logic.frames", "FrameAlgebra.__init__"),
}

# Spans the benchmark opens itself, around set-up and each request.
SETUP_SPAN = "bench.setup"
REQUEST_SPAN = "bench.request"

# Sizes read off return values: span name -> (counter, size of the result)
SIZES = {
    "lattice.build_lattice": (
        "lattice.elements",
        lambda lat: len(lat.elements) if lat.elements is not None else 0,
    ),
    "features.build_space": ("features.profiles", lambda space: space.n),
    "logic.correspondence.term_family": (
        "logic.correspondence.terms",
        lambda family: len(family[0]) + len(family[1]),
    ),
}

CALLS_AND_SELF = (
    "scenario.load_scenario",
    "lattice.build_lattice", "lattice.d_join", "lattice.member_form",
    "partitions.meet", "partitions.refines", "partitions.prefers",
    "features.build_space", "features.threshold_issue",
    "features.threshold_issues_for", "features.achievable_sums",
    "features.rule_preorder", "features.decide",
    "features.sum_decomposition_check", "features.sum_agenda",
    "features.meet_agendas",
    *(f"hetero.{f}" for f in HETERO_FUNCTIONS),
    "logic.terms.check_validity", "logic.terms.check_flat_validity",
    "logic.terms.holds",
    "logic.conditions.check_condition",
)
SELF_ONLY = (
    "scenario.build_structure", "scenario.analyze",
    "lattice.is_distributive", "lattice.covers", "lattice.issues_meet_prime",
    "lattice.is_complemented", "lattice.candidate_set_C",
    "logic.correspondence.term_family",
    "logic.correspondence.bounded_modal_equivalence",
)
CALLS_ONLY = (
    "coalitions.influence_diamond", "coalitions.influence_box",
    "logic.correspondence.correspondence_pair",
    "logic.frames.FrameAlgebra",
)


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in output order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    spec += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    spec += [(f"{name}.calls", "count", "lower") for name in CALLS_ONLY]
    spec += [(counter, "count", "lower") for counter, _ in SIZES.values()]
    spec += [
        ("lattice.build.meets_per_element", "ratio", "lower"),
        ("hetero.ops_computed_ratio", "ratio", "lower"),
    ]
    spec += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    spec += [("trace.overhead_frac", "ratio", "lower")]
    return spec


def layer_of(span_name):
    best = None
    for layer in LAYERS:
        if span_name.startswith(layer + ".") and (
            best is None or len(layer) > len(best)
        ):
            best = layer
    return best


class Tracer:
    """Records spans (name, start, end, parent, request, raised) in memory."""

    def __init__(self, span_cap):
        self.names = [SETUP_SPAN, REQUEST_SPAN, *TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_cap = span_cap
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.current = -1
        self.current_request = -1
        self.sizes = {counter: 0 for counter, _ in SIZES.values()}
        self._restore = []

    @property
    def full(self):
        return len(self.name) >= self.span_cap

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.request.append(self.current_request)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.raised.append(0)
        self.current = idx
        return idx

    def _close(self, idx, raised):
        self.end[idx] = perf_counter()
        if raised:
            self.raised[idx] = 1
        self.current = self.parent[idx]

    def call(self, span_name, fn, request=None):
        """Run fn() under a benchmark span (set-up or one request)."""
        if request is not None:
            self.current_request = request
        idx = self._open(self.name_id[span_name])
        try:
            result = fn()
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    def _wrap(self, span_name, fn):
        name_id = self.name_id[span_name]
        size = SIZES.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if size is not None:
                tracer.sizes[size[0]] += size[1](result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding site in agenda_algebra."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "agenda_algebra" or name.startswith("agenda_algebra.")
        ]
        for span_name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(f"agenda_algebra.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(span_name, original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans and size counters to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            size_names=np.array(list(self.sizes)),
            size_values=np.array(list(self.sizes.values()), dtype=np.int64),
        )


def derive(spans, overhead_frac):
    """Per-layer metrics from a written span file (an np.load result)."""
    names = [str(n) for n in spans["names"]]
    name_id = {n: i for i, n in enumerate(names)}
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(name),
    )
    self_time = duration - child_time
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))

    def count(span_name):
        return int(calls[name_id[span_name]])

    def seconds(span_name):
        return float(self_s[name_id[span_name]])

    out = {}
    for span_name in CALLS_AND_SELF:
        out[f"{span_name}.calls"] = count(span_name)
        out[f"{span_name}.self_s"] = seconds(span_name)
    for span_name in SELF_ONLY:
        out[f"{span_name}.self_s"] = seconds(span_name)
    for span_name in CALLS_ONLY:
        out[f"{span_name}.calls"] = count(span_name)
    out.update(
        (str(k), int(v))
        for k, v in zip(spans["size_names"], spans["size_values"])
    )

    # meets whose ancestors include a build_lattice span, per element built
    is_build = name == name_id["lattice.build_lattice"]
    inside = np.zeros(len(name), dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            break
        inside[live] |= is_build[up[live]]
        up[live] = parent[up[live]]
    build_meets = int(
        (inside & (name == name_id["partitions.meet"])).sum()
    )
    elements = out["lattice.elements"]
    out["lattice.build.meets_per_element"] = (
        build_meets / elements if elements else 0.0
    )

    # hetero functions called straight from an operator: its cache misses
    op_ids = np.array([name_id[f"hetero.HeteroAlgebra.{op}"]
                       for op in HETERO_OPS])
    fn_ids = np.array([name_id[f"hetero.{f}"] for f in HETERO_FUNCTIONS])
    op_calls = int(np.isin(name, op_ids).sum())
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    computed = int((np.isin(name, fn_ids) & np.isin(parent_name, op_ids)).sum())
    out["hetero.ops_computed_ratio"] = (
        computed / op_calls if op_calls else 0.0
    )

    # exceptions that left a layer: the caller is another layer or the bench
    layer_ids = np.array([
        LAYERS.index(layer_of(n)) if layer_of(n) else -1 for n in names
    ])
    own = layer_ids[name]
    caller = np.where(has_parent, layer_ids[parent_name], -1)
    escaped = (spans["raised"] == 1) & (own >= 0) & (caller != own)
    for k, layer in enumerate(LAYERS):
        out[f"{layer}.errors"] = int((escaped & (own == k)).sum())

    out["trace.overhead_frac"] = overhead_frac
    return out
