import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilefold.exactlat import mat_mul
from tilefold.tilegroup import (
    _EXP,
    _LOG,
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
    RationalMap,
    _linear_poly,
    _nilpotent_series,
    act_on_label,
    action_is_faithful,
    boundary_image_table,
    chart_point_to_x,
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

    def test_group_built_once(self):
        group = full_group()
        assert isinstance(group, tuple)
        assert full_group() is group

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
        # the error names the normalized point
        for p, point in (((-2, -2, -2, -2), (1, 1, 1, 1)), ((0, 0, Fraction(-3, 2), 3), (0, 0, 1, -2))):
            with pytest.raises(BasePointError) as exc:
                evaluate(generator_map("r2"), p)
            assert exc.value.point == point

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
        # the integer path and the Fraction path agree
        assert normalize_point((Fraction(4), Fraction(-6), 0, 0)) == (2, -3, 0, 0)
        assert normalize_point((4, -6, 0, 0)) == (2, -3, 0, 0)

    def test_generator_maps_built_once(self):
        for name in GENERATORS:
            assert generator_map(name) is generator_map(name)
            assert generator_map(name).name == name
        with pytest.raises(KeyError):
            generator_map("r4")

    def test_map_needs_four_components_of_one_degree(self):
        linear = tuple(_linear_poly(row) for row in (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        ))
        RationalMap(linear, "id")
        quadric = ((1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0)))
        with pytest.raises(ValueError):
            RationalMap((quadric,) + linear[1:], "mixed")
        with pytest.raises(ValueError):
            inhomogeneous = ((1, (2, 0, 0, 0)), (1, (0, 1, 0, 0)))
            RationalMap((inhomogeneous,) + linear[1:], "inhomogeneous")
        with pytest.raises(ValueError):
            RationalMap(linear[:3], "three")

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.integers(-20, 20)] * 4).filter(any),
        st.fractions(-30, 30, max_denominator=12).filter(bool),
    )
    def test_evaluate_is_projective(self, name, p, scale):
        # evaluate works on the primitive representative of p, so every
        # nonzero multiple of p, negative or fractional, gives the same result
        m = generator_map(name)
        scaled = tuple(scale * x for x in p)
        try:
            expected = evaluate(m, p)
        except BasePointError as exc:
            assert exc.point == normalize_point(p)
            with pytest.raises(BasePointError) as again:
                evaluate(m, scaled)
            assert again.value.point == normalize_point(p)
            return
        assert evaluate(m, scaled) == expected

    def test_evaluate_rejects_zero_vector(self):
        for name in GENERATORS:
            with pytest.raises(ValueError, match="zero vector"):
                evaluate(generator_map(name), (0, Fraction(0), 0, 0))

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

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.fractions(-20, 20, max_denominator=12)] * 3))
    def test_agreement_at_rational_points(self, name, y):
        try:
            derived = derive_generator_pointwise(name, y)
            expected = evaluate(generator_map(name), chart_point_to_x((1,) + y))
        except (DegenerateSampleError, BasePointError):
            return
        assert derived == expected

    def test_specific_point(self):
        y = (2, 3, 5)
        from tilefold.tilegroup import chart_point_to_x

        derived = derive_generator_pointwise("r1", y)
        expected = evaluate(generator_map("r1"), chart_point_to_x((1,) + y))
        assert derived == expected


def _series_reference(n, coeffs):
    """sum_k coeffs[k] n^k through general 4x4 products."""
    power = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    total = [[Fraction(0)] * 4 for _ in range(4)]
    for c in coeffs:
        total = [[t + c * x for t, x in zip(trow, prow)] for trow, prow in zip(total, power)]
        power = mat_mul(power, n)
    return total


strictly_lower = st.lists(
    st.fractions(-10, 10, max_denominator=9), min_size=6, max_size=6
).map(
    lambda v: [
        [v[i * (i - 1) // 2 + j] if j < i else Fraction(0) for j in range(4)]
        for i in range(4)
    ]
)


class TestNilpotentSeries:
    @settings(max_examples=60, deadline=None)
    @given(strictly_lower)
    def test_matches_general_products(self, n):
        for coeffs in (_EXP, _LOG):
            assert _nilpotent_series(n, coeffs) == _series_reference(n, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(strictly_lower)
    def test_log_inverts_exp(self, n):
        expm = _nilpotent_series(n, _EXP)
        shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(expm)]
        assert _nilpotent_series(shifted, _LOG) == n

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i, 4)])
    def test_rejects_entry_on_or_above_diagonal(self, i, j):
        n = [[Fraction(0)] * 4 for _ in range(4)]
        n[3][0] = Fraction(2)
        n[i][j] = Fraction(1, 3)
        with pytest.raises(ValueError, match="strictly lower"):
            _nilpotent_series(n, _EXP)


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
