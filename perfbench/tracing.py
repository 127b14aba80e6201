"""Span tracing installed from outside the package, for the traced benchmark run.

`Tracer.install()` replaces the public functions of `groups`, `chartab`,
`exactnum`, `families` and `gelfand` with timing wrappers, in every sgplab
module that looks the name up (so `chartab.conjugacy_classes` is wrapped as
well as `groups.conjugacy_classes`), plus the kernel and lookup methods
`MatOps`/`ExtOps` `mul`/`inv`, `FinGroup.index_of`/`contains` and the
`Cyclo` arithmetic operators.

Every call gets a frame on a stack, so a call's self time is its duration
minus the time of the wrapped calls it made.  Calls of the public functions
are also recorded as spans (id, name, start, end, parent id), kept in memory
and written out by `write_spans`.  Kernel, lookup and `Cyclo` calls run up to
millions of times per run, so they are leaves: their time and counts are
aggregated but no span is kept for each call.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# metric name -> wrapped functions whose self time it sums
SELF_TIME = {
    "groups.kernel_s": ("MatOps.mul", "MatOps.inv", "ExtOps.mul", "ExtOps.inv"),
    "groups.mulclose_s": ("mulclose",),
    "groups.index_s": ("FinGroup.index_of", "FinGroup.contains"),
    "groups.build_s": ("build_group", "maximal_subgroups_sp4"),
    "groups.subgroup_s": ("subgroup", "find_generators", "cyclic_subgroup",
                          "squares_subgroup", "is_subgroup"),
    "groups.classes_s": ("conjugacy_classes", "h_classes", "element_order",
                         "centralizer_order"),
    "chartab.table_s": ("dixon_schneider",),
    "chartab.inner_product_s": ("inner_product",),
    "chartab.restrict_s": ("restrict",),
    "chartab.induce_s": ("induce",),
    "exactnum.cyclo_s": ("Cyclo.__add__", "Cyclo.__radd__", "Cyclo.__sub__",
                         "Cyclo.__rsub__", "Cyclo.__neg__", "Cyclo.__mul__",
                         "Cyclo.__rmul__", "Cyclo.__pow__", "Cyclo.conjugate",
                         "Cyclo.lift", "root_of_unity"),
    "families.alpha_sum_s": ("alpha_sum", "parabolic_inner_product"),
    "gelfand.sgp_s": ("is_strong_gelfand_pair", "is_gelfand_pair",
                      "is_multiplicity_free", "total_char_shortcut",
                      "scan_maximal_sp4"),
    "gelfand.schur_s": ("schur_commutes",),
}

# (module, public functions) wrapped wherever sgplab looks them up
_FUNCTIONS = {
    "groups": ("build_group", "maximal_subgroups_sp4", "mulclose", "subgroup",
               "find_generators", "cyclic_subgroup", "squares_subgroup",
               "is_subgroup", "conjugacy_classes", "h_classes", "element_order",
               "centralizer_order"),
    "chartab": ("dixon_schneider", "inner_product", "restrict", "induce"),
    "exactnum": ("root_of_unity",),
    "families": ("alpha_sum", "parabolic_inner_product"),
    "gelfand": ("is_strong_gelfand_pair", "is_gelfand_pair",
                "is_multiplicity_free", "total_char_shortcut",
                "scan_maximal_sp4", "schur_commutes"),
}

_LEAF_METHODS = {
    ("groups", "MatOps"): ("mul", "inv"),
    ("groups", "ExtOps"): ("mul", "inv"),
    ("groups", "FinGroup"): ("index_of", "contains"),
    ("exactnum", "Cyclo"): ("__add__", "__radd__", "__sub__", "__rsub__",
                            "__neg__", "__mul__", "__rmul__", "__pow__",
                            "conjugate", "lift"),
}

_MODULES = ("groups", "chartab", "exactnum", "families", "gelfand")


def _kernel_bytes(dim: int, n: int, product: bool) -> int:
    """Bytes of the arrays one kernel call reads and writes, from their sizes.

    A product reads two key arrays, writes one, unpacks both operands and
    its result (dim*dim uint8 each) and forms the dim^3 term tensor; an
    inverse reads and writes one key array and unpacks one operand and its
    result.  Cache traffic is not measured: the figure is computed.
    """
    if product:
        return n * (3 * 8 + 3 * dim * dim + dim ** 3)
    return n * (2 * 8 + 2 * dim * dim)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (id, name, start, end, parent id)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list = []         # frames: [span id, start, child time]
        self._next_id = 0
        self._seen: dict = {}          # id -> object, for first-return detection
        self._active_sgp = 0
        self._installed: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool, after=None):
        stack, self_time, calls = self._stack, self.self_time, self.calls
        spans = self.spans

        def wrapper(*args, **kwargs):
            if leaf:
                sid = -1
            else:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                self_time[name] += dur - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if not leaf:
                    spans.append((sid, name, frame[1], end, parent))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _first_return(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj      # keeps obj alive so its id stays unique
        return True

    def _after_hooks(self) -> dict:
        c = self.counts

        def kernel(product):
            def after(args, result):
                n = len(result)
                c["kernel_products"] += n
                c["kernel_bytes"] += _kernel_bytes(args[0].dim, n, product)
            return after

        def lookups(args, result):
            c["index_lookups"] += len(result)

        def mulclose(args, result):
            c["mulclose_elements"] += int(result.size)

        def build(args, result):
            if not self._first_return(result):
                c["build_hits"] += 1

        def classes(args, result):
            if self._first_return(result):
                c["classes_found"] += len(result)

        def table(args, result):
            if self._first_return(result):
                c["tables_computed"] += 1
                c["classes_total"] += len(result.classes)
            else:
                c["table_hits"] += 1

        def inner(args, result):
            if self._active_sgp:
                c["inner_products_in_sgp"] += 1

        def shortcut(args, result):
            if result == "not_sgp":
                c["shortcut_hits"] += 1

        return {
            "MatOps.mul": kernel(True), "ExtOps.mul": kernel(True),
            "MatOps.inv": kernel(False), "ExtOps.inv": kernel(False),
            "FinGroup.index_of": lookups, "FinGroup.contains": lookups,
            "mulclose": mulclose, "build_group": build,
            "conjugacy_classes": classes, "h_classes": classes,
            "dixon_schneider": table, "inner_product": inner,
            "total_char_shortcut": shortcut,
        }

    def _sgp_scope(self, fn):
        def wrapper(*args, **kwargs):
            self._active_sgp += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._active_sgp -= 1
        return wrapper

    def install(self):
        """Wrap the public functions and kernel methods; undone by `uninstall`."""
        import importlib
        mods = {m: importlib.import_module(f"sgplab.{m}") for m in _MODULES}
        hooks = self._after_hooks()
        for (modname, clsname), methods in _LEAF_METHODS.items():
            cls = getattr(mods[modname], clsname)
            for meth in methods:
                name = f"{clsname}.{meth}"
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, True, hooks.get(name)))
        for modname, names in _FUNCTIONS.items():
            for name in names:
                orig = getattr(mods[modname], name)
                wrapped = self._wrap(name, orig, False, hooks.get(name))
                if name == "is_strong_gelfand_pair":
                    wrapped = self._sgp_scope(wrapped)
                for mod in mods.values():
                    if mod.__dict__.get(name) is orig:
                        self._installed.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: self times in s, counts, and their ratios."""
        st, calls, c = self.self_time, self.calls, self.counts
        out = {m: (sum(st[n] for n in names), "s") for m, names in SELF_TIME.items()}

        def ratio(num, den):
            return num / den if den else 0.0

        kernel_s = out["groups.kernel_s"][0]
        builds = calls["build_group"]
        tables = calls["dixon_schneider"]
        checks = calls["is_strong_gelfand_pair"]
        out.update({
            "groups.kernel_products": (c["kernel_products"], "count"),
            "groups.kernel_products_per_s": (ratio(c["kernel_products"], kernel_s), "1/s"),
            "groups.kernel_bytes_computed": (c["kernel_bytes"], "B"),
            "groups.mulclose_elements": (c["mulclose_elements"], "count"),
            "groups.index_lookups": (c["index_lookups"], "count"),
            "groups.build_cache_hit_ratio": (ratio(c["build_hits"], builds), "ratio"),
            "groups.classes_found": (c["classes_found"], "count"),
            "chartab.tables_computed": (c["tables_computed"], "count"),
            "chartab.table_cache_hit_ratio": (ratio(c["table_hits"], tables), "ratio"),
            "chartab.classes_total": (c["classes_total"], "count"),
            "chartab.inner_products": (calls["inner_product"], "count"),
            "exactnum.cyclo_mul": (calls["Cyclo.__mul__"] + calls["Cyclo.__rmul__"], "count"),
            "exactnum.cyclo_add": (calls["Cyclo.__add__"] + calls["Cyclo.__radd__"], "count"),
            "families.alpha_sums": (calls["alpha_sum"], "count"),
            "gelfand.sgp_checks": (checks, "count"),
            "gelfand.inner_products_per_check": (ratio(c["inner_products_in_sgp"], checks), "count"),
            "gelfand.shortcut_ratio": (ratio(c["shortcut_hits"], calls["total_char_shortcut"]), "ratio"),
        })
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
