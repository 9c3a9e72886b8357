"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public entry points of each vanishlab module
(layer) in place and `Tracer.uninstall()` restores them.  Every wrapped
function belongs to exactly one time metric, so the layer time metrics
partition the traced time:

    sum(time metrics) + unattributed_s == run_s

Two kinds of wrapper exist:

* span: a call into a layer.  Its self time is its duration minus the time
  of the spans and leaf calls it caused.  Spans are aggregated on the fly
  into per-metric self time through a stack of open spans; only the
  aggregates are reported, so no span list is kept.
* leaf: a hot call (`FiniteGroup.mul`, `AbHom.__call__`, `Cyclo`
  arithmetic) made millions of times.  Leaves are counted and their time
  is accumulated, not recorded one by one.  Only the outermost leaf of a
  nest is timed (a semidirect `mul` calling `AbHom.__call__` and the
  complement's `mul` is timed once, as `mul`), but every leaf is counted.
  A span started inside a leaf is not recorded; its time stays with the
  leaf.

Counters are exact: they count calls or sizes, never time, so two traced
runs of one seed give the same counts.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import prod
from time import perf_counter

import numpy as np

# (module, attribute path, time metric); a class attribute path is
# "Class.name".  Entries whose target is missing are skipped and reported.
SPANS = [
    ("groupfile", "parse_group", "groupfile.parse_s"),
    ("groupfile", "parse_group_file", "groupfile.parse_s"),
    ("constructions", "build_case_family", "constructions.build_s"),
    ("constructions", "catalog_entries", "constructions.build_s"),
    ("constructions", "random_corpus", "constructions.build_s"),
    ("constructions", "replay", "constructions.build_s"),
    ("constructions", "metacyclic_2generator", "constructions.build_s"),
    ("constructions", "heisenberg_3", "constructions.build_s"),
    ("group_engine", "FiniteGroup.__init__", "group_engine.build_s"),
    ("group_engine", "from_permutations", "group_engine.build_s"),
    ("group_engine", "parse_cycles", "group_engine.build_s"),
    ("group_engine", "build_semidirect", "group_engine.build_s"),
    ("group_engine", "SemidirectSpec.validate", "group_engine.build_s"),
    ("group_engine", "action_from_generator_matrices", "group_engine.build_s"),
    ("group_engine", "direct_product", "group_engine.build_s"),
    ("group_engine", "builtin_h", "group_engine.build_s"),
    ("group_engine", "FiniteGroup.conjugacy_data", "group_engine.classes_s"),
    ("group_engine", "FiniteGroup.closure", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.subgroup", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.normal_closure", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.center", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.centralizer", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.centralizer_of_set", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.normalizer", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.derived_subgroup", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.is_abelian", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.sylow", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.p_core", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.fitting", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.is_nilpotent", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.nilpotency_class", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.quotient", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.normal_subgroups", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.exponent", "group_engine.structure_s"),
    ("group_engine", "FiniteGroup.element_order", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.is_normal", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.is_abelian", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.as_group", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.join", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.intersection", "group_engine.structure_s"),
    ("group_engine", "SubgroupHandle.abelian_invariants", "group_engine.structure_s"),
    ("group_engine", "abelian_model", "group_engine.structure_s"),
    ("group_engine", "AbelianModel.conjugation_hom", "group_engine.structure_s"),
    ("group_engine", "is_frobenius_with_kernel", "group_engine.structure_s"),
    ("group_engine", "is_quasi_frobenius", "group_engine.structure_s"),
    ("group_engine", "is_a_group", "group_engine.structure_s"),
    ("character_lab", "class_data", "character_lab.table_s"),
    ("character_lab", "dixon_prime", "character_lab.table_s"),
    ("character_lab", "dixon_table", "character_lab.table_s"),
    ("character_lab", "proportion", "character_lab.census_s"),
    ("_linalg_modp", "rref", "linalg_modp.busy_s"),
    ("_linalg_modp", "nullspace", "linalg_modp.busy_s"),
    ("_linalg_modp", "solve", "linalg_modp.busy_s"),
    ("_linalg_modp", "matmul", "linalg_modp.busy_s"),
    ("_linalg_modp", "minimal_polynomial", "linalg_modp.busy_s"),
    ("_linalg_modp", "poly_roots", "linalg_modp.busy_s"),
    ("cyclotomic", "six_sum_classifier", "cyclotomic.busy_s"),
    ("cyclotomic", "vanishing_sum_possible", "cyclotomic.busy_s"),
    ("abelian_core", "AbSubgroup.__init__", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.from_elements", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.trivial", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.full", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.exponent", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.squares", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.isomorphism_type", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.intersection", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.join", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.image_under", "abelian_core.subgroup_s"),
    ("abelian_core", "AbSubgroup.is_invariant_under", "abelian_core.subgroup_s"),
    ("abelian_core", "perp", "abelian_core.subgroup_s"),
    ("abelian_core", "perp_dual", "abelian_core.subgroup_s"),
    ("abelian_core", "commutator_map", "abelian_core.subgroup_s"),
    ("abelian_core", "fixed_subgroup", "abelian_core.subgroup_s"),
    ("abelian_core", "omega", "abelian_core.subgroup_s"),
    ("abelian_core", "generated_submodule", "abelian_core.subgroup_s"),
    ("abelian_core", "embeds_in_C4_x_C2k", "abelian_core.subgroup_s"),
    ("abelian_core", "AbHom.identity", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.from_matrix", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.compose", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.is_identity", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.is_automorphism", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.multiplicative_order", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.inverse", "abelian_core.hom_s"),
    ("abelian_core", "AbHom.__pow__", "abelian_core.hom_s"),
    ("abelian_core", "commutator_hom", "abelian_core.hom_s"),
    ("classifier", "classify_theorem_a", "classifier.classify_s"),
    ("classifier", "check_b1", "classifier.classify_s"),
    ("classifier", "abelian_normal_candidates", "classifier.classify_s"),
    ("classifier", "verifying_b_cases", "classifier.classify_s"),
    ("classifier", "classify_a_group", "classifier.classify_s"),
    ("classifier", "primary_part", "classifier.classify_s"),
    ("classifier", "commutator_subgroup", "classifier.classify_s"),
    ("classifier", "subgroup_center", "classifier.classify_s"),
    ("classifier", "hall_23", "classifier.classify_s"),
    ("classifier", "check_c6_case", "classifier.module_checks_s"),
    ("classifier", "check_s3_case", "classifier.module_checks_s"),
]

# Hot calls: (module, attribute path, time metric, count metric or None).
LEAVES = [
    ("abelian_core", "AbHom.__call__", "abelian_core.hom_s", "abelian_core.hom_calls"),
    ("cyclotomic", "prime_factors", "cyclotomic.busy_s", None),
    ("cyclotomic", "euler_phi", "cyclotomic.busy_s", None),
    ("cyclotomic", "cyclotomic_polynomial", "cyclotomic.busy_s", None),
    ("cyclotomic", "root_of_unity", "cyclotomic.busy_s", None),
] + [
    ("cyclotomic", f"Cyclo.{name}", "cyclotomic.busy_s", None)
    for name in (
        "from_int", "zero", "one", "from_poly", "is_zero", "is_one", "lift",
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__pow__", "conj", "__eq__", "__hash__", "to_complex",
        "multiplicative_order", "render",
    )
]

# The mul callable handed to each FiniteGroup becomes this leaf.
MUL_LEAF = ("group_engine.mul_s", "group_engine.mul_calls")

TIME_METRICS = sorted(
    {m for _, _, m in SPANS} | {m for _, _, m, _ in LEAVES} | {MUL_LEAF[0]}
)
COUNT_METRICS = sorted(
    {c for _, _, _, c in LEAVES if c}
    | {
        MUL_LEAF[1],
        "group_engine.groups_built",
        "character_lab.tables_built",
        "linalg_modp.calls",
        "linalg_modp.mul_adds",
        "cyclotomic.ops",
        "abelian_core.subgroups_built",
        "abelian_core.closure_steps",
        "classifier.candidates",
        "classifier.oracle_calls",
        "classifier.setting_errors",
    }
)


def _layer(metric: str) -> str:
    return metric.split(".", 1)[0]


class Tracer:
    """Aggregates span self time, leaf time and exact counters."""

    def __init__(self):
        self.time = dict.fromkeys(TIME_METRICS, 0.0)
        self.count = dict.fromkeys(COUNT_METRICS, 0)
        # open spans: [metric, child_time, child_count]
        self._stack = []
        # time of root spans and of leaves called outside any span
        self._covered = 0.0
        self._leaf_depth = 0
        self._layer_depth = {}
        self._patches = []
        self.missing = []

    # -- recording ------------------------------------------------------

    def _enter(self, metric):
        frame = [metric, 0.0, 0]
        if self._stack:
            self._stack[-1][2] += 1
        self._stack.append(frame)
        layer = _layer(metric)
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        return frame

    def _exit(self, frame, duration):
        self._stack.pop()
        self._layer_depth[_layer(frame[0])] -= 1
        self.time[frame[0]] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self._covered += duration

    def _leaf_done(self, metric, duration):
        self.time[metric] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self._covered += duration

    def inside(self, layer: str) -> bool:
        return self._layer_depth.get(layer, 0) > 0

    def span(self, metric, fn, after=None):
        """Wrap fn as a span; after(frame, args, result) updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            frame = tracer._enter(metric)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, perf_counter() - start)
                tracer._on_raise(metric, exc)
                raise
            tracer._exit(frame, perf_counter() - start)
            if after is not None:
                after(frame, args, result)
            return result

        return wrapper

    def leaf(self, metric, counter, fn):
        tracer = self
        count = self.count

        def wrapper(*args, **kwargs):
            if counter:
                count[counter] += 1
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf_depth = 0
                tracer._leaf_done(metric, perf_counter() - start)

        wrapper.perfbench_leaf = True
        return wrapper

    def _on_raise(self, metric, exc):
        if metric == "classifier.module_checks_s":
            setting_error = getattr(self._mods["classifier"], "SettingError", ())
            if isinstance(exc, setting_error):
                self.count["classifier.setting_errors"] += 1

    # -- results --------------------------------------------------------

    def layer_metrics(self, run_s: float) -> dict:
        """Per-layer metrics for a traced pass that took run_s seconds."""
        out = {name: (value, "s") for name, value in self.time.items()}
        out.update({name: (value, "count") for name, value in self.count.items()})
        out["trace.run_s"] = (run_s, "s")
        out["trace.unattributed_s"] = (run_s - self._covered, "s")
        return out

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap the entry points of every module of `package`."""
        import importlib

        self._mods = {
            name: importlib.import_module(f"{package}.{name}")
            for name in (
                "abelian_core", "cyclotomic", "_linalg_modp", "group_engine",
                "character_lab", "classifier", "constructions", "groupfile",
                "cli",
            )
        }
        after = {
            "FiniteGroup.__init__": self._after_group,
            "dixon_table": self._after_table,
            "rref": self._after_rref,
            "matmul": self._after_matmul,
            "abelian_normal_candidates": self._after_candidates,
            "AbSubgroup.__init__": self._after_subgroup,
        }
        for mod, path, metric in SPANS:
            extra = self._linalg_call if mod == "_linalg_modp" else None
            hook = after.get(path)
            if extra and hook:
                hook = self._chain(extra, hook)
            self._patch(mod, path, lambda fn, m=metric, h=hook or extra: self.span(m, fn, h))
        for mod, path, metric, counter in LEAVES:
            self._patch(mod, path, lambda fn, m=metric, c=counter: self.leaf(m, c, fn))
        # second layer of wrapping, over the spans installed above
        self._patch("group_engine", "FiniteGroup.__init__", self._counting_mul)
        self._patch("cyclotomic", "Cyclo.__init__", self._counting_cyclo)
        self._patch("character_lab", "proportion", self._counting_oracle)
        if self.missing:
            print("trace: entry points not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @staticmethod
    def _chain(first, second):
        def both(frame, args, result):
            first(frame, args, result)
            second(frame, args, result)
        return both

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch(self, mod_name, path, make):
        mod = self._mods[mod_name]
        if "." in path:
            cls_name, name = path.split(".")
            cls = getattr(mod, cls_name, None)
            raw = cls.__dict__.get(name) if cls is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                return
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(make(raw.__func__)))
            elif isinstance(raw, cached_property):
                wrapped = cached_property(make(raw.func))
                wrapped.__set_name__(cls, name)
                self._set(cls, name, wrapped)
            else:
                self._set(cls, name, make(raw))
            return
        original = getattr(mod, path, None)
        if original is None:
            self.missing.append(f"{mod_name}.{path}")
            return
        wrapped = make(original)
        # rebind every module-level alias (`from .x import f`) as well
        for other in self._mods.values():
            for name, value in list(vars(other).items()):
                if value is original:
                    self._set(other, name, wrapped)

    # -- counters -------------------------------------------------------

    def _counting_mul(self, init):
        """FiniteGroup.__init__ that turns the group's mul into a leaf."""
        tracer = self
        metric, counter = MUL_LEAF

        def counted_init(group, elements, mul, *args, **kwargs):
            if not getattr(mul, "perfbench_leaf", False):
                mul = tracer.leaf(metric, counter, mul)
            init(group, elements, mul, *args, **kwargs)

        return counted_init

    def _counting_cyclo(self, init):
        count = self.count

        def counted_init(value, order, coeffs):
            count["cyclotomic.ops"] += 1
            init(value, order, coeffs)

        return counted_init

    def _counting_oracle(self, proportion):
        """proportion() that counts the calls made inside the classifier."""
        tracer = self
        count = self.count

        def counted(G):
            if tracer.inside("classifier") and not tracer._leaf_depth:
                count["classifier.oracle_calls"] += 1
            return proportion(G)

        return counted

    def _after_group(self, frame, args, result):
        self.count["group_engine.groups_built"] += 1

    def _after_table(self, frame, args, result):
        # a cached table returns without calling into any layer
        if frame[2]:
            self.count["character_lab.tables_built"] += 1

    def _linalg_call(self, frame, args, result):
        self.count["linalg_modp.calls"] += 1

    def _after_matmul(self, frame, args, result):
        a, b = np.shape(args[0]), np.shape(args[1])
        self.count["linalg_modp.mul_adds"] += prod(a[:-1]) * a[-1] * prod(b[1:])

    def _after_rref(self, frame, args, result):
        reduced, pivots = result
        rows, cols = reduced.shape
        # one rank-1 update of the whole matrix per pivot
        self.count["linalg_modp.mul_adds"] += rows * cols * len(pivots)

    def _after_candidates(self, frame, args, result):
        self.count["classifier.candidates"] += len(result)

    def _after_subgroup(self, frame, args, result):
        sub = args[0]
        self.count["abelian_core.subgroups_built"] += 1
        self.count["abelian_core.closure_steps"] += sub.order * len(sub.generators)
