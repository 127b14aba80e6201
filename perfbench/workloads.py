"""The benchmark's workloads: seeded inputs, the timed operation, answer checks.

Each workload is a class with
  inputs(seed, tiny) -> JSON-able inputs, made from the seed alone;
  prepare(inputs)    -> state the user pays for once (counted in setup_s);
  op(state, i)       -> the result of the i-th timed operation;
  check(state, i, result) -> None, or a string saying what is wrong.
`fixed` workloads do one operation per fresh process; the others are timed
loops over their inputs for the run's --seconds.

The answers checked below are the paper's facts or closed forms, computed
here, never read back from the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from sgplab import chartab, families, gelfand, groups
from sgplab.errors import ResourceBoundError


class ScanQ4:
    """gelfand.scan_maximal_sp4(4), the paper's headline scan, once per process."""

    name = "scan-q4"
    fixed = True

    def inputs(self, seed, tiny):
        return {"q": 2 if tiny else 4}          # no seed: the scan has one input

    def prepare(self, inputs):
        return inputs

    def op(self, state, i):
        return gelfand.scan_maximal_sp4(state["q"])

    def check(self, state, i, rows):
        q = state["q"]
        if len(rows) != 7:
            return f"{len(rows)} rows, expected 7"
        if q == 2:                               # Sp4(2) = S6: every row is sgp
            want_classes, want_total, want_max = 11, 76, 16
            bad = [r.h_label for r in rows if r.verdict != "sgp"]
            if bad:
                return f"rows not sgp: {bad}"
        else:
            want_classes, want_total, want_max = 27, 4336, 340
            for r in rows:
                if r.verdict != "not_sgp":
                    return f"{r.h_label}: {r.verdict}, expected not_sgp"
                if r.h_label.startswith("parabolic"):
                    w = r.witness
                    if (r.method != "full_check" or w is None or
                            (w.g_degree, w.h_degree, w.multiplicity) != (255, 60, 2)):
                        return f"{r.h_label}: expected full_check witness 255 -> 60 x2"
                elif r.method != "total_char_shortcut":
                    return f"{r.h_label}: settled by {r.method}, expected the shortcut"
        T = chartab.dixon_schneider(groups.build_group(f"sp4:{q}"))
        got = (len(T.classes), T.total_degree(), T.max_degree())
        if got != (want_classes, want_total, want_max):
            return f"sp4:{q} classes/total/max {got}"
        return None


def _subgroup_orders(q):
    """Closed-form orders of the maximal-subgroup specs of Sp4(q), q = 2^e."""
    out = {
        f"parabolic-p:{q}": q**3 * (q**2 + q) * (q - 1) ** 2,
        f"parabolic-q:{q}": q**3 * (q**2 + q) * (q - 1) ** 2,
        f"wreath-sp2:{q}": 2 * q**2 * (q**2 - 1) ** 2,
        f"ext-sp2q2-embedded:{q}": 2 * q**2 * (q**4 - 1),
        f"so4+:{q}": 2 * q**2 * (q**2 - 1) ** 2,
        f"so4-:{q}": 2 * q**2 * (q**4 - 1),
    }
    if q == 4:
        out["sp4-sub:4:2"] = 2**4 * (2**2 - 1) * (2**4 - 1)
    return out


class SubgroupsQ4Cold:
    """The seven maximal-subgroup tables of sp4:4 in one fresh process.

    sp4:4's own classes and table are never asked for; the seed only
    shuffles the build order.
    """

    name = "subgroups-q4-cold"
    fixed = True

    def inputs(self, seed, tiny):
        q = 2 if tiny else 4
        specs = sorted(_subgroup_orders(q))
        random.Random(seed).shuffle(specs)
        return {"q": q, "specs": specs}

    def prepare(self, inputs):
        return inputs

    def op(self, state, i):
        out = []
        for spec in state["specs"]:
            H = groups.build_group(spec)
            out.append((spec, H.order, chartab.dixon_schneider(H)))
        return out

    def check(self, state, i, built):
        q = state["q"]
        orders = _subgroup_orders(q)
        totals = {f"wreath-sp2:{q}": 316, f"ext-sp2q2-embedded:{q}": 324} if q == 4 else {}
        for spec, order, T in built:
            if order != orders[spec]:
                return f"{spec}: order {order}, closed form {orders[spec]}"
            if sum(d * d for d in T.degrees) != order:
                return f"{spec}: sum of squared degrees != {order}"
            if spec in totals and T.total_degree() != totals[spec]:
                return f"{spec}: total degree {T.total_degree()} != {totals[spec]}"
        return None


class SgpQueries:
    """A seeded stream of is_strong_gelfand_pair(G, H) queries.

    G cycles through the four groups; H is generated by one or two seeded
    random elements of G (redrawn when H = 1 or H = G).  The G tables are
    built once in prepare, every H is a fresh group with a fresh table.
    """

    name = "sgp-queries"
    fixed = False
    GROUPS = ("sp4:2", "sl2:16", "wreath-sp2:4", "sz:8")
    TINY_GROUPS = ("sp4:2", "sl2:4")
    POOL = 48

    def inputs(self, seed, tiny):
        rng = random.Random(seed)
        specs = self.TINY_GROUPS if tiny else self.GROUPS
        pool = 8 if tiny else self.POOL
        Gs = {s: groups.build_group(s) for s in specs}
        out = []
        for i in range(pool):
            spec = specs[i % len(specs)]
            G = Gs[spec]
            ngens = 1 + (i // len(specs)) % 2
            for _ in range(200):
                gens = [int(G.keys[rng.randrange(G.order)]) for _ in range(ngens)]
                try:    # a proper subgroup has index >= 2: stop closures early
                    keys = groups.mulclose(G.ops, gens, G.order // 2)
                except ResourceBoundError:
                    continue
                if keys.size > 1:
                    break
            else:
                raise RuntimeError(f"no proper subgroup drawn in {spec}")
            out.append({"G": spec, "gens": gens})
        return out

    def prepare(self, inputs):
        Gs = {}
        for q in inputs:
            if q["G"] not in Gs:
                Gs[q["G"]] = G = groups.build_group(q["G"])
                chartab.dixon_schneider(G)
        return {"queries": inputs, "groups": Gs}

    def op(self, state, i):
        q = state["queries"][i % len(state["queries"])]
        G = state["groups"][q["G"]]
        keys = groups.mulclose(G.ops, np.array(q["gens"], dtype=np.uint64), G.order)
        H = groups.subgroup(G, keys, f"H{i}")
        by_restrict = gelfand.is_strong_gelfand_pair(G, H).verdict
        by_induce = gelfand.is_strong_gelfand_pair(G, H, side="induce").verdict
        schur = (gelfand.schur_commutes(G, H)
                 if G.order <= gelfand.SCHUR_MAX_ORDER else None)
        return by_restrict, by_induce, schur

    def check(self, state, i, verdicts):
        by_restrict, by_induce, schur = verdicts
        if by_restrict != by_induce:
            return f"restrict says {by_restrict}, induce says {by_induce}"
        if schur is not None and schur != (by_restrict == "sgp"):
            return f"schur_commutes {schur} disagrees with {by_restrict}"
        return None


def _alpha_expected(q, k, m, n) -> int:
    """c*(q-1) - 4, c the number of sign pairs with q-1 | k +- m +- n."""
    c = sum(1 for s1 in (1, -1) for s2 in (1, -1) if (k + s1 * m + s2 * n) % (q - 1) == 0)
    return c * (q - 1) - 4


class AlphaSweep:
    """alpha_sum and parabolic_inner_product on seeded valid (q, k, m, n).

    One operation takes one triple at each q of QS.  A single triple costs
    from 2 ms at q = 16 to 80 ms at q = 64, so a median over single triples
    would fall between the costs of two q and jump with the seed's draw.
    """

    name = "alpha-sweep"
    fixed = False
    QS = (16, 32, 64)
    POOL = 1000

    def inputs(self, seed, tiny):
        rng = random.Random(seed)
        qs = (8,) if tiny else self.QS
        out = []
        for _ in range(30 if tiny else self.POOL):
            step = []
            for q in qs:
                while True:
                    k, m, n = (rng.randint(1, q - 2) for _ in range(3))
                    if m != n and m + n != q - 1:
                        break
                step.append((q, k, m, n))
            out.append(step)
        return out

    def prepare(self, inputs):
        return inputs

    def op(self, state, i):
        out = []
        for q, k, m, n in state[i % len(state)]:
            a = families.alpha_sum(families.AlphaParams(q, k, m, n))
            out.append((a, families.parabolic_inner_product(q, k, m, n)))
        return out

    def check(self, state, i, result):
        for (q, k, m, n), (a, ip) in zip(state[i % len(state)], result):
            want = _alpha_expected(q, k, m, n)
            if a != want:
                return f"alpha_sum{(q, k, m, n)} = {a}, expected {want}"
            if ip != Fraction(3 + q + want, q - 1):
                return f"parabolic_inner_product{(q, k, m, n)} = {ip}"
        return None


WORKLOADS = {w.name: w for w in (ScanQ4(), SubgroupsQ4Cold(), SgpQueries(), AlphaSweep())}
