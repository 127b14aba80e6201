"""The acceptance suite: one test per criterion, one printed line each.

Criteria 1-10 in order; the slow marker sits on the sp4:4 tier.  These call
the same check functions as `sgp-lab verify-paper --full`.
"""

import pytest

from sgplab import verify
from sgplab.groups import MAX_ORDER_DEFAULT


def _criterion(n, name, fn, *args):
    ok, detail = fn(*args)
    print(f"criterion {n} {'PASS' if ok else 'FAIL'} [{name}]: {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_01_sl2_tables():
    _criterion(1, "sl2-closed-form-tables",
               verify._c1_sl2_tables, (4, 8, 16), MAX_ORDER_DEFAULT)


def test_criterion_02_wreath():
    _criterion(2, "wreath-total-316", verify._c2_wreath, MAX_ORDER_DEFAULT)


def test_criterion_03_ext_split_fuse():
    _criterion(3, "ext-split-fuse-324", verify._c3_ext, MAX_ORDER_DEFAULT)


def test_criterion_04_alpha_sums():
    _criterion(4, "alpha-sums", verify._c4_alpha)


def test_criterion_05_suzuki():
    _criterion(5, "suzuki-sz8", verify._c5_suzuki, MAX_ORDER_DEFAULT)


def test_criterion_06_s6_scan():
    _criterion(6, "s6-maximal-scan", verify._c6_s6_scan, MAX_ORDER_DEFAULT)


@pytest.mark.slow
def test_criterion_07_sp4_scan():
    _criterion(7, "sp4-4-scan", verify._c7_sp4_scan, MAX_ORDER_DEFAULT)


def test_criterion_08_subfield_inequality():
    _criterion(8, "subfield-inequality", verify._c8_subfield, MAX_ORDER_DEFAULT)


def test_criterion_09_schur_equivalence():
    _criterion(9, "schur-equivalence", verify._c9_schur, MAX_ORDER_DEFAULT)


def test_criterion_10_property_suites():
    _criterion(10, "property-suite", verify._c10_properties, MAX_ORDER_DEFAULT)
