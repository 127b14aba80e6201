"""Command-line front end.

Global options: --format (pretty, json or csv) and --max-order.  Each verb
is one row of `VERBS`: chartab, sgp, scan-maximal, alpha-sum, families,
verify-paper, show-field.  A row computes the verb's result once, and
`_render` prints it by --format: as JSON (sorted keys) for chartab, sgp,
scan-maximal, alpha-sum and families; as CSV for chartab alone (lossy
floats, built only when asked); under any other format a verb prints its
pretty lines, so show-field and verify-paper print theirs whatever
--format says.  `verify-paper` prints one pass/fail line per check on
stdout as it runs and the seconds each check took on stderr.
The group specs of a command are parsed once, before any work starts, and
`run` builds the groups from the parsed form.  Exit codes: 0 success, 1 a
requested check failed or the reader closed stdout early, 2 usage or parse
error, 3 a resource bound was exceeded, 4 an internal cross-check disagreed
(a bug, not a user error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import families as fam
from . import gelfand, verify
from .chartab import dixon_schneider, table_to_csv, table_to_json
from .errors import InternalCheckError, ResourceBoundError
from .gfield import PRIMITIVE_POLYS
from .groups import (MAX_ORDER_DEFAULT, _even_prime_power, build_group,
                     is_subgroup, parse_group_spec)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def positive_int(text: str) -> int:
    """An int of at least 1 (the --max-order value)."""
    bound = int(text)
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {bound}")
    return bound


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sgp-lab",
        description="exact character tables and strong Gelfand pair checks "
                    "for Sp4(2^e) and friends")
    p.add_argument("--format", choices=("pretty", "json", "csv"),
                   default="pretty", help="output format")
    p.add_argument("--max-order", type=positive_int, default=MAX_ORDER_DEFAULT,
                   help="refuse to enumerate groups larger than this")
    sub = p.add_subparsers(dest="verb")

    c = sub.add_parser("chartab", help="compute a character table")
    c.add_argument("group")

    s = sub.add_parser("sgp", help="decide one strong Gelfand pair")
    s.add_argument("group")
    s.add_argument("subgroup")
    s.add_argument("--side", choices=("restrict", "induce"), default="restrict")

    m = sub.add_parser("scan-maximal", help="verdicts for all maximal subgroups")
    m.add_argument("q", type=int)

    a = sub.add_parser("alpha-sum", help="exact triple root-of-unity sum")
    a.add_argument("q", type=int)
    a.add_argument("k", type=int)
    a.add_argument("m", type=int)
    a.add_argument("n", type=int)

    f = sub.add_parser("families", help="evaluate a parametric degree family")
    f.add_argument("family", choices=("wreath", "ext", "suzuki", "sp4"))
    f.add_argument("q", type=int)

    v = sub.add_parser("verify-paper", help="run the acceptance suite")
    v.add_argument("--deep", action="store_true", help="add mid-size tables")
    v.add_argument("--full", action="store_true", help="add the sp4:4 tier")

    sub.add_parser("show-field", help="print the frozen field table")
    return p


def _parse_group_specs(ns: argparse.Namespace) -> argparse.Namespace:
    """Validate the command's group specs and q before any work starts,
    once: the parsed specs go to `ns.specs`, which `run` builds from."""
    if ns.verb in ("families", "scan-maximal"):
        _even_prime_power(ns.q, str(ns.q), 0)
    ns.specs = {attr: parse_group_spec(getattr(ns, attr))
                for attr in ("group", "subgroup")
                if getattr(ns, attr, None) is not None}
    return ns


class Verb(NamedTuple):
    """One row of `VERBS`.  `compute(ns, out)` returns the verb's result, or
    an exit status once the verb has printed all it prints (verify-paper,
    sgp's refusal).  A result has its pretty lines (`pretty`) and, where the
    verb renders them, its JSON value (`to_json`) and CSV text (`to_csv`)."""
    compute: Callable
    pretty: Callable | None = None
    to_json: Callable | None = None
    to_csv: Callable | None = None


def _table_lines(T):
    cd = T.classes
    return (f"group {T.group.label}: order {T.group.order}, {len(cd)} classes",
            "class sizes:  " + " ".join(map(str, cd.sizes)),
            "class orders: " + " ".join(map(str, cd.orders)),
            "degrees:      " + " ".join(map(str, T._degree_column())),
            f"total degree: {T.total_degree()}")


def _field_lines(polys):
    yield "e  q      modulus (bit mask, LSB = constant term)"
    for e, mask in polys.items():
        terms = " + ".join(
            ("1" if i == 0 else "x" if i == 1 else f"x^{i}")
            for i in range(mask.bit_length() - 1, -1, -1) if mask >> i & 1)
        yield f"{e:<2} {1 << e:<6} {mask:<7} = {terms}"


def _sgp(ns, out):
    G, H = (build_group(ns.specs[attr], max_order=ns.max_order) for attr in ("group", "subgroup"))
    if not is_subgroup(H, G):
        name, args = ns.specs["subgroup"]
        hint = f"; try ext-sp2q2-embedded:{args[0]}" if name == "ext-sp2q2" else ""
        print(f"{ns.subgroup} is not (set-wise) a subgroup of {ns.group}{hint}",
              file=sys.stderr)
        return EXIT_USAGE
    return gelfand.is_strong_gelfand_pair(G, H, side=ns.side)


def _alpha_sum(ns, out):
    a = fam.alpha_sum(fam.AlphaParams(ns.q, ns.k, ns.m, ns.n))  # raises on route disagreement
    line = {"q": ns.q, "k": ns.k, "m": ns.m, "n": ns.n, "alpha_sum": str(a)}
    if ns.q > 5:
        line["inner_product"] = str(fam.parabolic_inner_product(ns.q, ns.k, ns.m, ns.n))
    return line


def _alpha_lines(line):
    a, ip = line["alpha_sum"], line.get("inner_product")
    yield (a + (" (= q-5)" if a == str(line["q"] - 5) else "")
           + (f"; inner product = {ip}" if ip else ""))


def _families(ns, out):
    if ns.family == "sp4":
        total, mx = fam.sp4_degree_facts(ns.q)
        return {"total_degree": str(total), "max_degree": None if mx is None else str(mx)}
    spec = {"wreath": fam.wreath_degree_spec, "ext": fam.ext_degree_spec,
            "suzuki": lambda: fam.suzuki_degree_spec(ns.q)}[ns.family]()
    return {"rows": spec.to_json(), "degrees_at_q": spec.degrees_at(ns.q),
            "total_degree": spec.total_degree(ns.q),
            "sum_degree_squares": spec.sum_degree_squares(ns.q)}


def _verify_paper(ns, out):
    tier = 3 if ns.full else 2 if ns.deep else 1
    return EXIT_OK if verify.run_checks(tier, report=out, max_order=ns.max_order) else EXIT_FAIL


VERBS = {
    "chartab": Verb(lambda ns, out: dixon_schneider(
                        build_group(ns.specs["group"], max_order=ns.max_order)),
                    _table_lines, table_to_json, lambda T: table_to_csv(T).rstrip("\n")),
    "sgp": Verb(_sgp, lambda v: (str(v),), gelfand.SgpVerdict.to_json),
    "scan-maximal": Verb(lambda ns, out: gelfand.scan_maximal_sp4(ns.q, max_order=ns.max_order),
                         lambda vs: map(str, vs), lambda vs: [v.to_json() for v in vs]),
    "alpha-sum": Verb(_alpha_sum, _alpha_lines, lambda line: line),
    "families": Verb(_families, lambda payload: (f"{k}: {v}" for k, v in payload.items()),
                     lambda payload: payload),
    "verify-paper": Verb(_verify_paper),
    "show-field": Verb(lambda ns, out: PRIMITIVE_POLYS, _field_lines),
}


def _render(verb: Verb, result, fmt: str, out) -> None:
    """JSON or CSV where the verb renders that format, else the pretty lines."""
    if fmt == "json" and verb.to_json:
        out(json.dumps(verb.to_json(result), sort_keys=True))
    elif fmt == "csv" and verb.to_csv:
        out(verb.to_csv(result))
    else:
        for line in verb.pretty(result):
            out(line)


def run(ns: argparse.Namespace, out=print) -> int:
    """Execute a parsed command; returns the exit status."""
    if ns.verb is None:
        print("no command given; try --help", file=sys.stderr)
        return EXIT_USAGE
    verb = VERBS[ns.verb]
    result = verb.compute(ns, out)
    if isinstance(result, int):
        return result
    _render(verb, result, ns.format, out)
    return EXIT_OK


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        status = run(_parse_group_specs(ns))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to /dev/null,
        # so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalCheckError as exc:
        print(f"internal cross-check failed (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:                   # GroupSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
