"""Source mutants that the test suite must kill.

Each mutant names a file of `src/sgplab`, an exact fragment of it, the
replacement, and the test node ids that must each fail once the fragment
is replaced.  The fragment must occur exactly once, so a refactor that
moves the code updates the mutant instead of skipping it.  `test_mutants`
applies each one to a copy of `src/` and runs its tests against the copy.
The no-op mutant changes nothing, so its test must pass: it checks the
harness itself.

Mutants once checked by hand whose code is gone, so they are not listed:
`residue` ignoring the denominator (`Cyclo.residue` is deleted; the
residues are read from the canonical rows), an export through `Cyclo`
values (`Cyclo.to_json` is deleted), `inv_idx` kept (the partition holds
no inverse index), and the old per-chunk table build restored in
`_mul_fixed` (the tables are read off the entries of g).
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
    # cycle doubling one round short leaves some cycles with two labels
    Mutant("cycle-minima-one-round-short", "groups.py",
           "rounds = (n - 1).bit_length()", "rounds = (n - 1).bit_length() - 1",
           ("tests/test_groups.py::test_cycle_minima_are_the_least_positions_of_the_cycles[5]",
            "tests/test_groups.py::test_s6_has_eleven_classes")),
    # the stacked Gauss-Jordan overwrites a row it never moved to its pivot
    Mutant("rref-pivot-swap-dropped", "chartab.py",
           "        A[at, piv] = A[at, r]\n", "",
           ("tests/test_modlin.py::test_rref_and_nullspace_match_list_reference[0-13]",
            "tests/test_modlin.py::test_batched_rref_and_null_spaces_match_per_matrix[0-3061]")),
    # with P swapped for parabolic-q, a Schreier generator outside P goes unseen
    Mutant("sp4-without-schreier-in-p-check", "groups.py",
           "if not P.contains(schreier).all():", "if False:",
           ("tests/test_groups.py::test_sp4_coset_mutants_are_caught[line-stabilizer]",)),
    # two points with one coset give a key array with repeated keys
    Mutant("sp4-without-coset-overlap-check", "groups.py",
           "if np.any(keys[1:] == keys[:-1]):", "if False:",
           ("tests/test_groups.py::test_sp4_coset_mutants_are_caught[unscaled-points]",)),
    # a kernel pass longer than one slice leaves its last slice unwritten
    Mutant("sliced-drops-its-last-slice", "groups.py",
           "for lo in range(0, n, chunk):",
           "for lo in range(0, (n - 1) // chunk * chunk, chunk):",
           ("tests/test_kernel.py::test_mul_ref_does_not_depend_on_the_chunk_length",
            "tests/test_kernel.py::test_condition_failure_in_the_last_slice_is_counted")),
    # the degrees read at class 0, which is never the identity class of a
    # golden group (10 for sp4:2, 26 for sp4:4)
    Mutant("degrees-read-at-class-0", "chartab.py",
           "self.canonical[self.classes.identity_class]", "self.canonical[0]",
           ("tests/test_chartab.py::test_degrees_read_from_rows_match_the_values[sp4:2]",
            "tests/test_chartab.py::test_degrees_read_from_rows_match_the_values[sp4:4]",
            "tests/test_chartab.py::test_s6_degree_multiset")),
)
