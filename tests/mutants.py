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
    # tau's first column pair read as (0, 3) instead of (0, 1)
    Mutant("graph-aut-minor-on-columns-0-3", "groups.py",
           "top[:, :, second], bottom[:, :, second]",
           "top[:, :, [3, 2, 3, 3]], bottom[:, :, [3, 2, 3, 3]]",
           ("tests/test_kernel.py::test_graph_aut_is_a_homomorphism_on_all_pairs_of_sp4_2",
            "tests/test_kernel.py::test_graph_aut_pairs_the_maximal_rows[2]",
            "tests/test_cli.py::test_scan_maximal_json_matches_golden[2]")),
    # the labels of a trace fiber carried to the fiber one past its image under F
    Mutant("fiber-square-target-off-by-one", "groups.py",
           "nxt = int(ops.fiber_of(ops.frobenius(keys[:1]))[0]) if stable else f",
           "nxt = int(ops.fiber_of(ops.frobenius(keys[:1]))[0]) + 1 if stable else f",
           ("tests/test_groups.py::test_s6_has_eleven_classes",
            "tests/test_groups.py::test_frobenius_carried_partition_matches_the_uncarried_one[sl2:4]")),
    # the carried classes keep the numbering of the other group's
    Mutant("carry-classes-without-renumbering", "groups.py",
           "class_of, reps = new[image_class], least[old]",
           "class_of, reps = image_class, least",
           ("tests/test_gelfand.py::test_carried_tables_equal_computed_ones[2]",
            "tests/test_cli.py::test_scan_maximal_json_matches_golden[2]")),
    # labels carried along F when G is F-stable but the conjugating group is not
    Mutant("f-stability-checked-on-g-alone", "groups.py",
           "for X in (G, within)))", "for X in (G,)))",
           ("tests/test_groups.py::"
            "test_frobenius_carry_needs_an_f_stable_conjugating_group[sl2:16-None]",)),
    # the Gram check without the minor on rows (2, 3)
    Mutant("gram-without-rows-2-3-minor", "groups.py",
           "ops.pair_form(m[:, 1, i], m[:, 2, i], m[:, 1, j], m[:, 2, j])",
           "np.zeros_like(m[:, 1, i])",
           ("tests/test_groups.py::test_pair_table_checks_match_the_retired_chains[parabolic-p:2]",
            "tests/test_groups.py::test_gram_forms_match_the_product_check[sp4:2]",
            "tests/test_cli.py::test_chartab_json_matches_golden[parabolic-p:2]")),
    # so4- keeps x1 x4 + x2 x3 only, the form of so4+
    Mutant("so4-minus-without-its-squares", "groups.py",
           'return s if sign == "+" else add[s, squares[x[1], x[2]]]', "return s",
           ("tests/test_groups.py::test_pair_table_checks_match_the_retired_chains[so4-:2]",
            "tests/test_cli.py::test_chartab_json_matches_golden[so4-:2]")),
    # so4+ and so4- each carried from the other's partner
    Mutant("tau-partners-swapped", "gelfand.py",
           '"so4+": "wreath-sp2", "so4-": "ext-sp2q2-embedded"',
           '"so4+": "ext-sp2q2-embedded", "so4-": "wreath-sp2"',
           ("tests/test_cli.py::test_scan_maximal_json_matches_golden[2]",
            "tests/test_gelfand.py::test_carried_tables_equal_computed_ones[2]")),
)
