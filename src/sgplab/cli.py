"""Command-line front end.

Global options: --format (pretty, json or csv) and --max-order.  Verbs:
chartab, sgp, scan-maximal, alpha-sum, families, verify-paper, show-field.
`verify-paper` prints one pass/fail line per check on stdout and the
seconds each check took on stderr.
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

from . import families as fam
from . import gelfand, verify
from .chartab import dixon_schneider, table_to_csv, table_to_json
from .errors import GroupSpecError, InternalCheckError, ResourceBoundError
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


def _show_field_table(out):
    out("e  q      modulus (bit mask, LSB = constant term)")
    for e, mask in PRIMITIVE_POLYS.items():
        terms = " + ".join(
            ("1" if i == 0 else "x" if i == 1 else f"x^{i}")
            for i in range(mask.bit_length() - 1, -1, -1) if mask >> i & 1)
        out(f"{e:<2} {1 << e:<6} {mask:<7} = {terms}")


def _emit_table(T, ns, out):
    if ns.format == "json":
        out(json.dumps(table_to_json(T), sort_keys=True))
    elif ns.format == "csv":
        out(table_to_csv(T).rstrip("\n"))
    else:
        cd = T.classes
        out(f"group {T.group.label}: order {T.group.order}, "
            f"{len(cd)} classes")
        out("class sizes:  " + " ".join(str(s) for s in cd.sizes))
        out("class orders: " + " ".join(str(o) for o in cd.orders))
        out("degrees:      " + " ".join(map(str, T._degree_column())))
        out(f"total degree: {T.total_degree()}")


def run(ns: argparse.Namespace, out=print) -> int:
    """Execute a parsed command; returns the exit status."""
    if ns.verb == "show-field":
        _show_field_table(out)
        return EXIT_OK
    if ns.verb is None:
        print("no command given; try --help", file=sys.stderr)
        return EXIT_USAGE

    if ns.verb == "chartab":
        G = build_group(ns.specs["group"], max_order=ns.max_order)
        _emit_table(dixon_schneider(G), ns, out)
        return EXIT_OK

    if ns.verb == "sgp":
        G = build_group(ns.specs["group"], max_order=ns.max_order)
        H = build_group(ns.specs["subgroup"], max_order=ns.max_order)
        if not is_subgroup(H, G):
            name, args = ns.specs["subgroup"]
            hint = f"; try ext-sp2q2-embedded:{args[0]}" if name == "ext-sp2q2" else ""
            print(f"{ns.subgroup} is not (set-wise) a subgroup of {ns.group}{hint}",
                  file=sys.stderr)
            return EXIT_USAGE
        v = gelfand.is_strong_gelfand_pair(G, H, side=ns.side)
        out(json.dumps(v.to_json(), sort_keys=True) if ns.format == "json"
            else str(v))
        return EXIT_OK

    if ns.verb == "scan-maximal":
        verdicts = gelfand.scan_maximal_sp4(ns.q, max_order=ns.max_order)
        if ns.format == "json":
            out(json.dumps([v.to_json() for v in verdicts], sort_keys=True))
        else:
            for v in verdicts:
                out(str(v))
        return EXIT_OK

    if ns.verb == "alpha-sum":
        params = fam.AlphaParams(ns.q, ns.k, ns.m, ns.n)
        a = fam.alpha_sum(params)  # raises on route disagreement
        line = {"q": ns.q, "k": ns.k, "m": ns.m, "n": ns.n,
                "alpha_sum": str(a)}
        if ns.q > 5:
            ip = fam.parabolic_inner_product(ns.q, ns.k, ns.m, ns.n)
            line["inner_product"] = str(ip)
        if ns.format == "json":
            out(json.dumps(line, sort_keys=True))
        else:
            msg = f"{a}"
            if a == ns.q - 5:
                msg += " (= q-5)"
            if "inner_product" in line:
                msg += f"; inner product = {line['inner_product']}"
            out(msg)
        return EXIT_OK

    if ns.verb == "families":
        if ns.family == "sp4":
            total, mx = fam.sp4_degree_facts(ns.q)
            payload = {"total_degree": str(total),
                       "max_degree": None if mx is None else str(mx)}
        else:
            spec = {"wreath": fam.wreath_degree_spec,
                    "ext": fam.ext_degree_spec,
                    "suzuki": lambda: fam.suzuki_degree_spec(ns.q)}[ns.family]()
            payload = {"rows": spec.to_json(),
                       "degrees_at_q": spec.degrees_at(ns.q),
                       "total_degree": spec.total_degree(ns.q),
                       "sum_degree_squares": spec.sum_degree_squares(ns.q)}
        if ns.format == "json":
            out(json.dumps(payload, sort_keys=True))
        else:
            for k, v in payload.items():
                out(f"{k}: {v}")
        return EXIT_OK

    if ns.verb == "verify-paper":
        tier = 3 if ns.full else 2 if ns.deep else 1
        ok = verify.run_checks(tier, report=out, max_order=ns.max_order)
        return EXIT_OK if ok else EXIT_FAIL

    print(f"unhandled verb {ns.verb}", file=sys.stderr)
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    try:
        status = run(_parse_group_specs(ns))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to /dev/null,
        # so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalCheckError as exc:
        print(f"internal cross-check failed (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
