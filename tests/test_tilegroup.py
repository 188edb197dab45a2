import random
from fractions import Fraction

import pytest

from tilefold.tilegroup import (
    GENERATORS,
    IDENTITY,
    LABELS,
    R1,
    R2,
    R3,
    TAU,
    TABLE1,
    BasePointError,
    DegenerateSampleError,
    act_on_label,
    action_is_faithful,
    boundary_image_table,
    compose,
    derivation_agreement,
    derive_generator_pointwise,
    evaluate,
    full_group,
    generator_map,
    inverse,
    normalize_point,
    relations_hold_pointwise,
    sample_point,
    verify_subvariety_image,
    word,
    subvariety_equations_satisfied,
)


class TestAbstractGroup:
    def test_generators_are_involutions(self):
        for g in (R1, R2, R3, TAU):
            assert compose(g, g) == IDENTITY

    def test_braid_relations(self):
        assert word("r1", "r2", "r1") == word("r2", "r1", "r2")
        assert word("r2", "r3", "r2") == word("r3", "r2", "r3")

    def test_tau_relations(self):
        assert word("tau", "r1", "tau") == R3
        assert word("tau", "r2", "tau") == R2
        assert word("tau", "r3", "tau") == R1

    def test_group_order_48(self):
        assert len(full_group()) == 48

    def test_inverse(self):
        for g in full_group():
            assert compose(g, inverse(g)) == IDENTITY
            assert compose(inverse(g), g) == IDENTITY

    def test_associativity_spot(self):
        rng = random.Random(0)
        group = full_group()
        for _ in range(60):
            a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestLabelAction:
    def test_twenty_labels(self):
        assert len(LABELS) == 20
        assert len(set(LABELS)) == 20

    def test_examples(self):
        assert act_on_label(R1, "A0") == "A1"
        assert act_on_label(TAU, "A0") == "B3"
        assert act_on_label(TAU, "C02") == "C02"
        assert act_on_label(TAU, "C12") == "C03"
        assert act_on_label(TAU, "C03") == "C12"
        assert act_on_label(TAU, "D01") == "D23"

    def test_tau_fixes_other_c_labels(self):
        for lab in ("C01", "C02", "C13", "C23"):
            assert act_on_label(TAU, lab) == lab

    def test_is_group_action(self):
        group = full_group()
        rng = random.Random(1)
        for _ in range(200):
            g = group[rng.randrange(48)]
            h = group[rng.randrange(48)]
            lab = LABELS[rng.randrange(20)]
            assert act_on_label(compose(g, h), lab) == act_on_label(
                g, act_on_label(h, lab)
            )

    def test_faithful(self):
        assert action_is_faithful()

    def test_types_preserved_by_permutations(self):
        for g in full_group():
            for lab in LABELS:
                img = act_on_label(g, lab)
                if not g.flip:
                    assert img[0] == lab[0]


class TestRationalMaps:
    def test_r1_swaps_pairs(self):
        m = generator_map("r1")
        assert evaluate(m, (1, 2, 3, 4)) == (2, 1, 4, 3)

    def test_tau_swaps_middle(self):
        m = generator_map("tau")
        assert evaluate(m, (1, 2, 3, 4)) == (1, 3, 2, 4)

    def test_r2_worked_example(self):
        m = generator_map("r2")
        assert evaluate(m, (1, 2, 3, 5)) == (2, 4, 3, 1)
        assert evaluate(m, (2, 4, 3, 1)) == (1, 2, 3, 5)

    def test_r2_base_point(self):
        with pytest.raises(BasePointError):
            evaluate(generator_map("r2"), (1, 1, 1, 1))

    def test_r2_base_conic(self):
        rng = random.Random(0)
        m = generator_map("r2")
        for _ in range(40):
            s, t = rng.randint(-20, 20), rng.randint(-20, 20)
            for p in ((0, 0, s, t), (0, s, 0, t)):
                if not any(p):
                    continue
                with pytest.raises(BasePointError):
                    evaluate(m, p)

    def test_normalize_point(self):
        assert normalize_point((Fraction(1, 2), Fraction(1, 3), 0, 0)) == (3, 2, 0, 0)
        assert normalize_point((-2, 4, 0, 0)) == (1, -2, 0, 0)

    def test_relations_as_maps(self):
        rep = relations_hold_pointwise(samples=30, seed=0)
        assert all(v["holds"] for v in rep.values())


class TestDerivation:
    def test_agreement_all_generators(self):
        for name in ("r1", "r2", "r3", "tau"):
            rep = derivation_agreement(name, samples=40, seed=0)
            assert rep["all_agree"] and rep["samples"] == 40

    def test_degenerate_sample_detected(self):
        # the gauge normalization fails where a subdiagonal of the logarithm
        # vanishes; for the generators this happens at half-integer points
        with pytest.raises(DegenerateSampleError):
            derive_generator_pointwise("r1", (Fraction(1, 2), 0, 0))

    def test_vanishing_principal_minor_detected(self):
        from tilefold.tilegroup import _lu_unipotent_lower

        singular_leading = [
            [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        ]
        with pytest.raises(DegenerateSampleError):
            _lu_unipotent_lower(singular_leading)

    def test_specific_point(self):
        y = (2, 3, 5)
        from tilefold.tilegroup import chart_point_to_x

        derived = derive_generator_pointwise("r1", y)
        expected = evaluate(generator_map("r1"), chart_point_to_x((1,) + y))
        assert derived == expected


class TestSubvarieties:
    def test_sampling_stays_on_variety(self):
        rng = random.Random(0)
        for lab, sub in TABLE1.items():
            for _ in range(10):
                p = sample_point(sub, rng)
                assert subvariety_equations_satisfied(sub, p), lab

    def test_identity_maps_variety_to_itself(self):
        rng = random.Random(0)
        sub = TABLE1["B0"]
        rep = verify_subvariety_image(generator_map("r1"), sub, TABLE1["B1"], 10, rng)
        assert rep["verified"]

    def test_r2_plane_to_line(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            generator_map("r2"), TABLE1["A2"], TABLE1["A1"], 20, rng
        )
        assert rep["verified"]

    def test_r2_quadric_to_plane(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            generator_map("r2"), TABLE1["C23"], TABLE1["C13"], 20, rng
        )
        assert rep["verified"]

    def test_wrong_target_fails(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            generator_map("r1"), TABLE1["A2"], TABLE1["A1"], 10, rng
        )
        assert not rep["verified"]

    def test_source_in_base_locus_exhausts_budget(self):
        # A1 lies in the base locus of r2, so every sample is redrawn
        rng = random.Random(0)
        with pytest.raises(RuntimeError, match="budget"):
            verify_subvariety_image(
                generator_map("r2"), TABLE1["A1"], TABLE1["A0"], 3, rng
            )

    def test_identity_map_fixes_every_variety(self):
        from tilefold.tilegroup import RationalMap, _linear_poly

        identity = RationalMap(
            tuple(_linear_poly(row) for row in (
                (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            )),
            "id",
        )
        rng = random.Random(0)
        for lab, sub in TABLE1.items():
            rep = verify_subvariety_image(identity, sub, sub, 5, rng)
            assert rep["verified"], lab


class TestBoundaryImageTable:
    def test_full_verification(self):
        table, rep = boundary_image_table(samples=15, seed=0)
        assert rep["seed_rows_exact"]
        assert rep["chain_covers_all_rows"]
        assert rep["all_rows_verified"]
        assert rep["images_pairwise_distinct"]

    def test_row_contents(self):
        assert TABLE1["A0"].kind == "line"
        assert TABLE1["C23"].kind == "quadric"
        assert TABLE1["C01"].data == (1, 1, 1, 1)
        assert TABLE1["D12"].data == (0, 0, 0, 1)

    def test_chain_targets_match_label_action(self):
        from tilefold.tilegroup import TABLE1_CHAIN

        for gname, src, dst in TABLE1_CHAIN:
            assert act_on_label(GENERATORS[gname], src) == dst

    def test_linear_generators_permute_all_rows_exactly(self):
        # for the three linear generators the image of every table row is
        # computed exactly (transformed equations and points), and must be
        # the row of the acted label; this ties the whole table to the
        # abstract label action with no sampling involved
        from tilefold.tilegroup import (
            R1_MATRIX,
            R3_MATRIX,
            TAU_MATRIX,
            Subvariety,
            table_key,
        )

        def transform(sub, mat):
            # permutation-style matrices: inverse equals transpose here
            inv = tuple(zip(*mat))
            if sub.kind == "point":
                img = tuple(
                    sum(row[j] * sub.data[j] for j in range(4)) for row in mat
                )
                return Subvariety("point", img)
            if sub.kind == "quadric":
                # each generator maps the quadric onto itself up to sign;
                # verified separately below
                return sub
            rows = tuple(
                tuple(sum(eq[i] * inv[i][j] for i in range(4)) for j in range(4))
                for eq in sub.data
            )
            return Subvariety(sub.kind, rows)

        for name, mat in (("r1", R1_MATRIX), ("r3", R3_MATRIX), ("tau", TAU_MATRIX)):
            g = GENERATORS[name]
            for lab, sub in TABLE1.items():
                target = TABLE1[act_on_label(g, lab)]
                assert table_key(transform(sub, mat)) == table_key(target), (name, lab)

        # the quadric form composed with each linear generator is +- itself
        for mat in (R1_MATRIX, R3_MATRIX, TAU_MATRIX):
            def q(p):
                return p[0] * p[3] - p[1] * p[2]

            for p in ((1, 2, 3, 4), (1, 0, 0, 1), (5, -1, 2, 7)):
                img = tuple(sum(row[j] * p[j] for j in range(4)) for row in mat)
                assert abs(q(img)) == abs(q(p))
