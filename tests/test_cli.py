"""The command-line front end: parsing, verbs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgplab
from sgplab import gfield, groups
from sgplab.cli import (EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                        _parse_group_specs, _parser, main, run)
from sgplab.errors import GroupSpecError
from sgplab.groups import build_group, conjugacy_classes


def _parse(text):
    """A command string as `main` parses its argv."""
    return _parse_group_specs(_parser().parse_args(text.split()))


def _run(text):
    lines = []
    code = run(_parse(text), out=lines.append)
    return code, "\n".join(lines)


def test_parse_spec_examples():
    ns = _parse("sgp sp4:4 wreath-sp2:4")
    assert ns.verb == "sgp" and ns.group == "sp4:4" and ns.subgroup == "wreath-sp2:4"
    assert ns.specs == {"group": ("sp4", (4,)), "subgroup": ("wreath-sp2", (4,))}
    ns = _parse("alpha-sum 8 4 1 2")
    assert (ns.q, ns.k, ns.m, ns.n) == (8, 4, 1, 2)


def test_parse_spec_rejects_sz4():
    with pytest.raises(GroupSpecError):
        _parse("chartab sz:4")


def test_parse_spec_rejects_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        _parse("frobnicate sl2:4")
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_alpha_sum_verb():
    code, out = _run("alpha-sum 8 4 1 2")
    assert code == EXIT_OK
    assert "3 (= q-5); inner product = 2" in out


def test_chartab_pretty_and_json():
    code, out = _run("chartab sl2:4")
    assert code == EXIT_OK and "order 60, 5 classes" in out
    code, js = _run("--format json chartab sl2:4")
    assert code == EXIT_OK
    blob = json.loads(js)
    assert blob["order"] == 60 and len(blob["irreducibles"]) == 5


def test_json_output_is_deterministic():
    out1 = _run("--format json chartab sl2:8")[1]
    out2 = _run("--format json chartab sl2:8")[1]
    assert out1 == out2


def test_chartab_csv():
    code, out = _run("--format csv chartab sl2:2")
    assert code == EXIT_OK and out.startswith("#") and "lossy" in out


def test_sgp_verb():
    code, out = _run("sgp s6 so4-:2")
    assert code == EXIT_OK and "sgp" in out
    code, out = _run("--format json sgp s6 ext-sp2q2-embedded:2")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "sgp"


def test_sgp_of_sl2_2_over_the_trivial_group(capsys):
    """The trivial group is built on the GF(2) 2x2 ops of sl2:2, so it is a
    subgroup there; 1^G is the regular character of S3, in which the
    degree-2 irreducible has multiplicity 2."""
    assert main(["sgp", "sl2:2", "trivial"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ("(sl2:2, trivial): not_sgp via full_check  "
                            "[deg 2 restricts to deg 1 with multiplicity 2]\n")
    assert captured.err == ""


def test_sgp_non_subgroup_is_usage_error(capsys):
    """Exit 2 with the message on stderr, so stdout stays empty for JSON
    readers; the embedded form is named only for ext-sp2q2."""
    for argv, hint in [("sgp sl2:4 sl2:8", None),
                       ("--format json sgp sp4:4 sz:8", None),
                       ("--format json sgp sp4:2 ext-sp2q2:2",
                        "try ext-sp2q2-embedded:2")]:
        assert main(argv.split()) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not (set-wise) a subgroup of" in captured.err
        if hint:
            assert hint in captured.err
        else:
            assert "try" not in captured.err


def test_scan_maximal_q2():
    code, out = _run("scan-maximal 2")
    assert code == EXIT_OK
    assert out.count("sgp") == 7 and "not_sgp" not in out


def test_scan_maximal_q8_resource():
    assert main(["scan-maximal", "8"]) == EXIT_RESOURCE


@pytest.mark.parametrize("argv", ["families wreath 3", "families sp4 3",
                                  "families sp4 0", "families ext 6",
                                  "scan-maximal 3"])
def test_q_that_is_not_a_power_of_2_is_a_usage_error(argv, monkeypatch, capsys):
    """Refused with exit 2 before any work: no family is evaluated and no
    group is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("wreath_degree_spec", "ext_degree_spec", "sp4_degree_facts"):
        monkeypatch.setattr(sgplab.families, name, no_work)
    monkeypatch.setattr(sgplab.gelfand, "scan_maximal_sp4", no_work)
    assert main(argv.split()) == EXIT_USAGE
    assert "is not a power of 2" in capsys.readouterr().err


def test_max_order_refusal():
    assert main(["--max-order", "100", "chartab", "sl2:16"]) == EXIT_RESOURCE


def test_families_verb():
    code, out = _run("families suzuki 8")
    assert code == EXIT_OK and "484" in out
    code, out = _run("--format json families wreath 4")
    blob = json.loads(out)
    assert blob["total_degree"] == 316 and blob["sum_degree_squares"] == 7200
    code, out = _run("families sp4 4")
    assert "4336" in out and "425" in out


def test_show_field():
    code, out = _run("show-field")
    assert code == EXIT_OK
    assert "x^4 + x + 1" in out


@pytest.mark.parametrize("argv", [["--show-field"], ["--seed", "1", "show-field"]])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def test_usage_errors_from_main():
    assert main(["chartab", "sz:4"]) == EXIT_USAGE
    assert main(["alpha-sum", "8", "1", "2", "2"]) == EXIT_USAGE  # m = n


def test_verify_paper_tier1():
    code, out = _run("verify-paper")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") >= 6 and "SKIP sp4-4-scan" in out


def test_verify_paper_times_checks_on_stderr_only(capsys):
    """stdout keeps exactly the pass/fail/skip lines; stderr gets one timing
    line per check that runs, in check order."""
    from sgplab.verify import CHECKS, run_checks
    lines = []
    run_checks(1, report=lines.append)
    capsys.readouterr()
    assert main(["verify-paper"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out == "\n".join(lines) + "\n"
    ran = [c.name for c in CHECKS if c.tier <= 1]
    err = cap.err.splitlines()
    assert len(err) == len(ran)
    for name, line in zip(ran, err):
        assert re.fullmatch(rf"time {re.escape(name)}: \d+\.\d\d s", line), line


def test_verify_paper_deep_lines_match_golden():
    """The in-process tier-2 report is the committed stdout of
    `verify-paper --deep`, which runs the ext split/fuse check; the checks
    are cached, so this reruns none that another test already ran."""
    from sgplab.verify import run_checks
    lines = []
    assert run_checks(2, report=lines.append)
    golden = Path(__file__).parent / "golden" / "verify_paper_deep.txt"
    assert lines == golden.read_text().splitlines()


def test_inconsistent_closure_is_internal_error(monkeypatch, capsys):
    """A closure that picks up an element without its inverse is a kernel
    bug: exit 4, naming the group, not an uncaught KeyError."""
    ops = groups.mat_ops(gfield.field_ctx(1), 4, "symplectic")
    g = groups._sp4_gens(ops)
    outsider = ops.mul(g[0], g[2])[0]          # order 4, not in wreath-sp2:2
    real = groups.mulclose

    def leaky(ops_, gens, max_order):
        return np.union1d(real(ops_, gens, max_order), [outsider])

    monkeypatch.setattr(groups, "mulclose", leaky)
    # a --max-order of its own, so no cached wreath-sp2:2 is reused
    assert main(["--max-order", "4321", "chartab", "wreath-sp2:2"]) == EXIT_INTERNAL
    assert "wreath-sp2:2" in capsys.readouterr().err


def test_conjugate_outside_the_group_is_internal_error(monkeypatch, capsys):
    """A kernel product that leaves the group (here one conjugate with one
    bit flipped) is a bug: exit 4, naming the group, not a KeyError."""
    real = groups.MatOps.conj

    def flipped(self, keys, g):
        out = real(self, keys, g)
        out[0] ^= np.uint64(1)
        return out

    monkeypatch.setattr(groups.MatOps, "conj", flipped)
    # a --max-order of its own, so no cached sl2:8 and its classes are reused
    assert main(["--max-order", "4322", "chartab", "sl2:8"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "sl2:8" in err and "not in the group" in err


@pytest.mark.parametrize("spec", ["sl2:4", "sz:8", "sp4:2", "ext-sp2q2:2",
                                  "so4-:2", "parabolic-p:2",
                                  "ext-sp2q2-embedded:2", "ext-sp2q2-embedded:4",
                                  pytest.param("sp4:4", marks=pytest.mark.slow),
                                  "sp4-sub:8:2", "ext-sp2q2:4", "so4+:4",
                                  "parabolic-p:4", "wreath-sp2:4",
                                  "parabolic-q:4", "so4-:4"])
def test_chartab_json_matches_golden(spec, capsys):
    """Byte-identical to the output pinned before the byte-table kernel (the
    first three), before ExtOps moved onto it (the next three), before
    ext-sp2q2-embedded was built from gamma's minimal polynomial (the next
    two), before each eigenspace was split by the class matrix of its
    first pivot after the identity (sp4:4), before keys of at most 32
    bits were stored as uint32 (sp4-sub:8:2, which with sz:8 keeps 64-bit
    keys) and before the class partition ran one fiber at a time
    (ext-sp2q2:4 on its two twist fibers, so4+:4 on its four trace
    fibers) and before the eigenspaces were split in batches
    (parabolic-p:4 and wreath-sp2:4, the largest q = 4 splits outside
    the other goldens: 26 and 20 classes) and before the Sp4(4) scan
    carried tables along the graph automorphism (parabolic-q:4 and
    so4-:4, two of the three rows it carries)."""
    golden = Path(__file__).parent / "golden" / f"chartab_{spec.replace(':', '_')}.json"
    assert main(["--format", "json", "chartab", spec]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("argv", [[], ["--format", "json"]])
def test_no_command_is_a_usage_error_on_stderr(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "no command given" in captured.err


@pytest.mark.parametrize("q", [2, pytest.param(4, marks=pytest.mark.slow)])
def test_scan_maximal_json_matches_golden(q, capsys):
    """Byte-identical to the output pinned before q = 2 joined the q >= 4
    maximal-subgroup list."""
    golden = Path(__file__).parent / "golden" / f"scan_maximal_{q}.json"
    assert main(["--format", "json", "scan-maximal", str(q)]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.slow
@pytest.mark.parametrize("side", ["restrict", "induce"])
@pytest.mark.parametrize("sub", ["parabolic-p:4", "parabolic-q:4"])
def test_sgp_json_matches_golden(side, sub, capsys):
    """Byte-identical to the output pinned before the verdicts were read
    from the restriction-multiplicity matrix."""
    name = f"sgp_{side}_sp4_4_{sub.replace(':', '_')}.json"
    golden = Path(__file__).parent / "golden" / name
    assert main(["--format", "json", "sgp", "--side", side, "sp4:4", sub]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text()


Q8_DIGESTS = Path(__file__).parent / "golden" / "q8_digests.json"


def q8_digests(spec: str) -> dict:
    """SHA-256 digests of one q = 8 row: its sorted keys (little-endian
    uint64), its ClassData (sizes, reps, inverse classes, orders, power
    classes and the dtype of class_of as JSON, then the bytes of class_of)
    and the stdout of `chartab --format json`."""
    G = build_group(spec)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--format", "json", "chartab", spec]) == EXIT_OK
    cd = conjugacy_classes(G)
    classes = hashlib.sha256(json.dumps([cd.sizes, cd.reps, cd.inverse_class, cd.orders,
                                         cd.power_classes, cd.class_of.dtype.str]).encode())
    classes.update(cd.class_of.tobytes())
    return {"keys": hashlib.sha256(G.keys.astype("<u8").tobytes()).hexdigest(),
            "classes": classes.hexdigest(),
            "stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.slow
def test_q8_rows_match_their_digests():
    """The six large q = 8 maximal rows keep the keys, classes and JSON
    table pinned in tests/golden/q8_digests.json, recomputed in one
    process; a failure names each (row, digest) that differs."""
    want = json.loads(Q8_DIGESTS.read_text())
    assert list(want) == ["parabolic-p:8", "parabolic-q:8", "wreath-sp2:8",
                          "ext-sp2q2-embedded:8", "so4+:8", "so4-:8"]
    got = {spec: q8_digests(spec) for spec in want}
    differ = [(spec, name) for spec in want for name in ("keys", "classes", "stdout")
              if got[spec][name] != want[spec][name]]
    assert not differ, f"q = 8 digests that differ: {differ}"


def test_every_golden_is_compared_under_optimize():
    """The CI step that runs the console script with PYTHONOPTIMIZE=1 has
    one `cmp` line per file in tests/golden but the q = 8 digest file, and
    one `sha256sum -c` line per row of that file, which checks the row's
    `chartab --format json` stdout against its digest; so a new golden or
    digest row cannot miss the step."""
    root = Path(__file__).parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    steps = [s for s in workflow.split("- name: ") if 'PYTHONOPTIMIZE: "1"' in s]
    assert len(steps) == 1
    compared = re.findall(r"\| cmp - tests/golden/(\S+)$", steps[0], re.M)
    goldens = sorted(p.name for p in (root / "tests" / "golden").iterdir())
    assert Q8_DIGESTS.name in goldens
    assert sorted(compared) == [g for g in goldens if g != Q8_DIGESTS.name]
    digested = re.findall(r"^\s*sgp-lab --format json chartab (\S+) \| sha256sum -c "
                          r"<\(jq -r '\.\[\"\1\"\]\.stdout \+ \"  -\"' "
                          r"tests/golden/q8_digests\.json\)$", steps[0], re.M)
    assert sorted(digested) == sorted(json.loads(Q8_DIGESTS.read_text()))


def test_group_spec_is_parsed_once(monkeypatch):
    import sgplab.cli
    import sgplab.groups
    calls = []
    orig = sgplab.groups.parse_group_spec

    def counting(text):
        calls.append(text)
        return orig(text)

    monkeypatch.setattr(sgplab.cli, "parse_group_spec", counting)
    monkeypatch.setattr(sgplab.groups, "parse_group_spec", counting)
    assert main(["sgp", "sl2:4", "sl2:4"]) == EXIT_OK
    assert calls == ["sl2:4", "sl2:4"]     # once for the group, once for H


@pytest.mark.parametrize("spec", ["sl2:4", "sl2:16"])
def test_reader_closing_stdout_early_is_exit_1_without_traceback(spec):
    """The reader's end of the pipe is closed before the command writes; the
    small table fails at the final flush, the one over 8 KB inside print."""
    src = str(Path(sgplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "sgplab.cli", "--format", "json", "chartab", spec],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert (res.returncode, res.stderr) == (EXIT_FAIL, b"")


@pytest.mark.parametrize("power", [1, 3, 8])
def test_ext_embedded_with_a_wrong_trace_is_internal_error(power, monkeypatch, capsys):
    """In GF(16), t = g + g^power in place of g + g^4 is 0, outside GF(4),
    or g^10, for which x^2 + t x + n has a root in GF(4) and the closure has
    7200 elements, not 8160: exit 4, naming the group."""
    monkeypatch.setattr(gfield, "frobenius", lambda ctx, a, f: ctx.pow(a, power))
    # a --max-order of its own, so no cached ext-sp2q2-embedded:4 is reused
    assert main(["--max-order", "8161", "chartab", "ext-sp2q2-embedded:4"]) == EXIT_INTERNAL
    assert "ext-sp2q2-embedded:4" in capsys.readouterr().err


def test_ext_embedded_non_symplectic_generator_is_internal_error(monkeypatch, capsys):
    """gamma * 1 has determinant gamma^2 != 1, so it scales the form."""
    monkeypatch.setattr(groups, "_sl2_gens", lambda ctx: [[[ctx.gamma, 0], [0, ctx.gamma]]])
    assert main(["--max-order", "8162", "chartab", "ext-sp2q2-embedded:4"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "ext-sp2q2-embedded:4" in err and "not symplectic" in err
