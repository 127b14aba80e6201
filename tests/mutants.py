"""Source mutants that the test suite must kill.

Each mutant names a file of `src/sgplab`, an exact fragment of it, the
replacement, and how it is killed: the test node ids that must each fail
once the fragment is replaced, or one entry of `tests/pinned.py` (`pin`,
its `Pinned.name`) that must report a MISMATCH (another exit status,
other stdout bytes or another digest) when the console script runs it
under PYTHONOPTIMIZE=1, where no `assert` runs.  A CLI mutant that states
is killed only if its command also exits with its `exit_code` (4, an
internal check, by default; 0 for a mutant that changes stdout alone).  The
fragment must occur exactly once, and the pin must name an entry, so a
refactor that moves the code or renames the pin updates the mutant instead
of skipping it.  `test_mutants` applies each one to a copy of `src/` and
runs its tests or its pin against the copy.  The two no-op mutants change
nothing, so the test of one must pass and the pin of the other must be
reproduced: they check the harness itself.

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
    tests: tuple = ()
    survives: bool = False
    pin: str = ""
    exit_code: int = 4


MUTANTS = (
    Mutant("no-op", "chartab.py",
           "MAX_CLASSES = 200", "MAX_CLASSES = 200",
           ("tests/test_chartab.py::test_s3_table",), survives=True),
    # the pin of a CLI mutant is reproduced when nothing is changed
    Mutant("no-op-cli", "chartab.py",
           "MAX_CLASSES = 200", "MAX_CLASSES = 200", pin="verify_paper.txt", survives=True),
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
           "if not H.contains(schreier).all():", "if False:",
           ("tests/test_groups.py::test_sp4_coset_mutants_are_caught[line-stabilizer]",)),
    # FinGroup without its distinctness check: two points with one coset
    # give sp4:4 a key array with repeated keys, which passes the inverse check
    Mutant("sp4-without-coset-overlap-check", "groups.py",
           "if not (keys[1:] > keys[:-1]).all():", "if False:",
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
            "tests/test_cli.py::test_pinned_output[scan_maximal_2.json]")),
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
            "tests/test_cli.py::test_pinned_output[scan_maximal_2.json]")),
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
            "tests/test_cli.py::test_pinned_output[chartab_parabolic-p_2.json]")),
    # so4- keeps x1 x4 + x2 x3 only, the form of so4+
    Mutant("so4-minus-without-its-squares", "groups.py",
           'return s if sign == "+" else add[s, squares[x[1], x[2]]]', "return s",
           ("tests/test_groups.py::test_pair_table_checks_match_the_retired_chains[so4-:2]",
            "tests/test_cli.py::test_pinned_output[chartab_so4-_2.json]")),
    # so4+ and so4- each built as the image of the other's source
    Mutant("tau-partners-swapped", "groups.py",
           '"so4+", q, "wreath-sp2", False,', '"so4+", q, "ext-sp2q2-embedded", True,',
           ("tests/test_cli.py::test_pinned_output[scan_maximal_2.json]",
            "tests/test_gelfand.py::test_carried_tables_equal_computed_ones[2]")),
    # the closed form of tau_H(1) for ext-sp2q2 and so4- one too large: the
    # scan's check against the computed totals, under -O
    Mutant("ext-total-degree-off-by-one-cli", "groups.py",
           "_ext_tau = _q**4 + _q**3 + _q ",
           "_ext_tau = _q**4 + _q**3 + _q + 1 ",
           pin="scan_maximal_4.json"),
    # the closed form of sp4-sub:q:q0 read at q, the total of Sp4(q) itself
    # (every other row at q = 4 reads its form at t = q anyway)
    Mutant("sp4-sub-closed-form-at-q-cli", "groups.py",
           "tau and tau.eval_int(t))", "tau and tau.eval_int(q))",
           pin="scan_maximal_4.json"),
    # the one wreath-sp2 = so4+ order as (q^2 - 1)(q^2 + 1) for (q^2 - 1)^2:
    # the build's order check fails under -O ...
    Mutant("wreath-order-wrong-factor-cli", "groups.py",
           "_wreath_order = 2 * _q**2 * (_q**2 - 1) ** 2",
           "_wreath_order = 2 * _q**2 * (_q**2 - 1) * (_q**2 + 1)",
           pin="chartab_wreath-sp2_4.json"),
    # ... and so does the degree family's sum d^2 m, which reads the same order
    Mutant("wreath-order-wrong-factor", "groups.py",
           "_wreath_order = 2 * _q**2 * (_q**2 - 1) ** 2",
           "_wreath_order = 2 * _q**2 * (_q**2 - 1) * (_q**2 + 1)",
           ("tests/test_families.py::test_wreath_spec_symbolic_identities",)),
    # parabolic-p keeps the root element that moves <e1>: its orbit of <e4>
    # is all of PG(3, 4), and a Schreier generator leaves its Levi subgroup,
    # a bug (exit 4), not the --max-order bound (3)
    Mutant("parabolic-keeps-every-generator-cli", "groups.py",
           "del gens[1]", "pass",
           pin="chartab_parabolic-p_4.json"),
    # the Levi subgroup of parabolic-p without its torus, the diagonal
    # elements of sl2:q cut to the identity: the Schreier generators of the
    # torus are not in it ("a Schreier generator is not in levi:4")
    Mutant("levi-without-its-torus-cli", "groups.py",
           "torus = S.keys[~S.ops.unpack(S.keys)[:, [0, 1], [1, 0]].any(axis=1)]",
           "torus = [S.ops.identity]",
           pin="chartab_parabolic-p_4.json"),
    # wreath-sp2's swap coset replaced by its base: every key twice, which
    # the inverse check and the order count let through, but not FinGroup's
    # distinctness check
    Mutant("wreath-swap-coset-as-its-base-cli", "groups.py",
           "for ca, cb in ((a, b), (b, a))", "for ca, cb in ((a, b), (a, b))",
           pin="chartab_wreath-sp2_4.json"),
    # so4- as tau^-1(ext-sp2q2-embedded) without the transvection t_v that
    # takes it to so4-'s form, which it needs at q = 8
    Mutant("image-without-its-transvection-cli", "groups.py",
           "aut = tau if t == one else lambda k: ops.conj(tau(k), t)", "aut = tau",
           pin="so4-:8"),
    # sp4-sub:q:q0 through an embedding table that is the identity on codes:
    # the image's entries are codes of GF(q), not GF(q0), so the Gram forms
    # fail (q0 = 4: at q0 = 2 the identity on codes is the embedding)
    Mutant("sp4-sub-embedding-as-identity-cli", "groups.py",
           "gfield.subfield_embed(S.ops.ctx, ops.ctx, a) for a in range(q0)",
           "a for a in range(q0)",
           pin="chartab_sp4-sub_16_4.json"),
    # a tau image conjugates by t_v even when t_v = 1: a whole conjugation
    # pass that changes no key
    Mutant("tau-image-conjugates-by-the-identity", "groups.py",
           "aut = tau if t == one else lambda k: ops.conj(tau(k), t)",
           "aut = lambda k: ops.conj(tau(k), t)",
           ("tests/test_groups.py::test_images_by_tau_alone_run_no_conjugation_pass[2]",)),
    # an image keeps its argsort as intp, twice the narrowest dtype at q = 8
    Mutant("image-argsort-kept-as-intp", "groups.py",
           "by = np.argsort(keys).astype(np.min_scalar_type(S.order - 1))",
           "by = np.argsort(keys)",
           ("tests/test_groups.py::"
            "test_an_image_keeps_its_argsort_in_the_narrowest_dtype[parabolic-q:2-uint8]",)),
    # conj by a matrix that its inverse mode does not invert returns
    # J g^T J x g, with no error
    Mutant("conj-without-its-inverse-check", "groups.py",
           'if side == "conj" and not np.array_equal(', "if False and not np.array_equal(",
           ("tests/test_kernel.py::"
            "test_conj_refuses_an_element_its_inverse_mode_does_not_invert",)),
    # parabolic-q as the identity image of parabolic-p, not tau of it: no
    # transvection takes it into parabolic-q's flag stabilizer, so its keys fail the flag
    Mutant("image-tau-as-identity-cli", "groups.py",
           "k = ops.graph_aut(k)", "k = _as_key_array(k, ops.dtype)",
           pin="chartab_parabolic-q_4.json"),
    # the twist of the coset sl2:q^2 (1, 1) set one bit low, inside the
    # matrix part: the union is no longer sorted and distinct
    Mutant("ext-coset-twist-one-bit-low-cli", "groups.py",
           "ops.dtype.type(1) << ops._tshift", "ops.dtype.type(1) << (ops._tshift - 1)",
           pin="chartab_ext-sp2q2_2.json"),
    # ext-sp2q2-embedded as rho alone, T not folded into the block tables:
    # rho keeps Tr(x1 y2 + x2 y1), not J, so the images fail the Gram forms
    Mutant("ext-embedding-without-t-cli", "groups.py",
           "tables = ops.mul(ops.mul(t_inv, ops.pack(blocks.reshape(-1, 4, 4))), t_key)",
           "tables = ops.pack(blocks.reshape(-1, 4, 4))",
           pin="chartab_ext-sp2q2-embedded_4.json"),
    # the scan prints the ext row under its source's spec: exit 0, and
    # only stdout differs
    Mutant("scan-ext-row-printed-as-its-source-cli", "groups.py",
           '"ext-sp2q2:{q}", _AT_Q, _ext_tau)', '"ext-sp2q2-embedded:{q}", _AT_Q, _ext_tau)',
           pin="scan_maximal_2.json", exit_code=0),
    # a6 as the closure of the first square that the greedy search keeps:
    # a cyclic group, refused by the order check of the a6 build
    Mutant("squares-closed-from-one-generator-cli", "groups.py",
           "gens, keys = _greedy_generators(G.ops, sq, G.order)",
           "gens = _greedy_generators(G.ops, sq, G.order)[0][:1]; "
           "keys = mulclose(G.ops, gens, G.order)",
           pin="chartab_a6.json"),
    # an image keeps its argsort rolled by one: its carried classes fail the carry's check
    Mutant("image-argsort-off-by-one-cli", "groups.py",
           "(S, aut, by))", "(S, aut, np.roll(by, 1)))",
           pin="scan_maximal_4.json"),
    # the batched alpha sums without the pattern (+k, +m, +n): no sum is rational
    Mutant("alpha-sums-sign-pattern-dropped", "families.py",
           "for c in (1, -1)])", "for c in (1, -1)][1:])",
           ("tests/test_families.py::test_alpha_sums_match_alpha_sum[8-None]",
            "tests/test_families.py::test_alpha_sums_match_alpha_sum[64-100]",
            "tests/test_cli.py::test_pinned_output[verify_paper.txt]")),
    # the count of zeta^e read against row e + 1 of R_(q-1)
    Mutant("alpha-sums-reduction-one-row-off", "families.py",
           "rows = _canonical_rows(counts)", "rows = _canonical_rows(np.roll(counts, 1, axis=1))",
           ("tests/test_families.py::test_alpha_sums_match_alpha_sum[16-300]",
            "tests/test_families.py::test_alpha_sums_match_alpha_sum[32-300]",
            "tests/test_cli.py::test_pinned_output[verify_paper.txt]")),
    # the same dropped pattern, seen by the console script under -O
    Mutant("alpha-sums-sign-pattern-dropped-cli", "families.py",
           "for c in (1, -1)])", "for c in (1, -1)][1:])",
           pin="verify_paper.txt"),
    # a sum of two values of one order and denominator builds into the
    # stored dict of its left operand, which other values share
    Mutant("cyclo-add-aliases-stored-dict", "exactnum.py",
           "out = dict(self._terms(n, den))", "out = self._terms(n, den)",
           ("tests/test_exactnum.py::test_lazy_matches_eager_reference",
            "tests/test_exactnum.py::test_residue_is_a_ring_map")),
    # values of one order are added without rescaling their numerators to
    # the common denominator
    Mutant("cyclo-equal-order-ignores-den", "exactnum.py",
           "if sign == 1 and order == self.order and den == self._den:",
           "if sign == 1 and order == self.order:",
           ("tests/test_exactnum.py::test_lazy_matches_eager_reference",
            "tests/test_exactnum.py::test_residue_is_a_ring_map",
            "tests/test_gelfand.py::test_schur_matches_sgp_on_s4_d8_q8")),
    # verify-paper builds its groups without the --max-order bound: sl2:8
    # (504 elements) is built, and the command exits 0, not 3
    Mutant("verify-paper-without-the-bound", "cli.py",
           "report=out, max_order=ns.max_order)", "report=out)",
           pin="--max-order_10_verify-paper", exit_code=0),
    # the same unscaled sum, seen by the console script under -O
    Mutant("cyclo-equal-order-ignores-den-cli", "exactnum.py",
           "if sign == 1 and order == self.order and den == self._den:",
           "if sign == 1 and order == self.order:",
           pin="verify_paper.txt"),
)
