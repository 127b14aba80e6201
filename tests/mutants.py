"""Source mutants that the test suite must kill.

Each mutant names a file of `src/sgplab`, an exact fragment of it, the
replacement, and the test node ids that must each fail once the fragment
is replaced.  The fragment must occur exactly once, so a refactor that
moves the code updates the mutant instead of skipping it.  `test_mutants`
applies each one to a copy of `src/` and runs its tests against the copy.
The no-op mutant changes nothing, so its test must pass: it checks the
harness itself.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    tests: tuple
    survives: bool = False


MUTANTS = (
    Mutant("no-op", "chartab.py",
           "MAX_CLASSES = 200", "MAX_CLASSES = 200",
           ("tests/test_chartab.py::test_s3_table",), survives=True),
    # a table built from values keeps a fractional coefficient as its floor
    Mutant("value-rows-denominator-dropped", "chartab.py",
           "if c.denominator != 1 or not -(1 << 63) <= c < 1 << 63:",
           "if not -(1 << 63) <= c < 1 << 63:",
           ("tests/test_chartab.py::"
            "test_a_table_built_from_values_refuses_what_its_rows_cannot_hold[fraction]",
            "tests/test_gelfand.py::test_corrupt_table_in_gelfand_pair_is_internal_error")),
    # a value of an order that does not divide its class's fails in `lift`
    Mutant("value-rows-order-dropped", "chartab.py",
           "if n % v.order:", "if False:",
           ("tests/test_chartab.py::"
            "test_a_table_built_from_values_refuses_what_its_rows_cannot_hold[order]",
            "tests/test_gelfand.py::test_restriction_matrix_refuses_what_one_prime_cannot_read")),
    # sl2_table writes zeta_(q+1)^(3j) at the class of order 3 of SL2(8)
    Mutant("sl2-table-without-gcd", "families.py",
           "g = math.gcd(m, e)", "g = 1",
           ("tests/test_families.py::test_sl2_table_matches_dixon[8]",
            "tests/test_chartab.py::test_json_export_of_a_value_built_table_is_the_computed_one[8]")),
    # an image with one extra key agrees with the keys on every slice when
    # the slice size divides the number of keys
    Mutant("sorted-onto-without-size-check", "groups.py",
           "if img.size != keys.size or not all(", "if not all(",
           ("tests/test_groups.py::test_sorted_onto_refuses_an_image_with_one_extra_key[3]",
            "tests/test_groups.py::test_sorted_onto_refuses_an_image_with_one_extra_key[9]")),
)
