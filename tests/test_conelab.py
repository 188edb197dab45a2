
import dataclasses

import pytest

from tilefold import conelab
from tilefold.conelab import (
    all_pair_functionals_report,
    classify_contractions,
    contraction_orbit_report,
    effective_cone_analysis,
    effective_generators,
    group_preserves_cones,
    mori_cone,
    mori_generators,
    multican_nonnegative_on_mori,
    nef_cone,
    orbit,
    orbit_decomposition,
    orbit_sizes,
    pairing_checks,
    partial_flag_cones,
)
from tilefold.divcalc import (
    LABELS,
    act_on_curve,
    curve_class,
)
from tilefold.exactlat import primitive_vector
from tilefold.polyhedra import Cone, dual_cone


class TestMoriCone:
    def test_thirty_one_generators(self):
        gens = mori_generators()
        assert len(gens) == 31
        assert len(set(gens.values())) == 31

    def test_listed_coincidences(self):
        assert curve_class("A0", "D01") == curve_class("A1", "D01")
        assert curve_class("B2", "D23") == curve_class("B3", "D23")

    def test_cone_counts(self):
        mori = mori_cone()
        assert mori["ray_count"] == 31
        assert mori["facet_count"] == 189

    def test_k_degree_split(self):
        mori = mori_cone()
        assert len(mori["k_negative"]) == 12
        assert len(mori["k_trivial"]) == 19
        assert all(
            mori["anticanonical_degrees"][r] == 1 for r in mori["k_negative"]
        )

    def test_duality_closure(self):
        mori = mori_cone()
        assert dual_cone(dual_cone(mori["cone"])) == mori["cone"]

    def test_all_pair_functionals_inside(self):
        survey = all_pair_functionals_report()
        assert survey["pairs_checked"] == 190
        # conjecture-level observation: reported, and currently empty
        assert survey["outside_cone"] == []


class TestNefCone:
    def test_ray_count_and_histogram(self):
        nef = nef_cone()
        assert nef["ray_count"] == 189
        assert nef["histogram"] == {
            0: 20, 1: 6, 2: 24, 4: 6, 5: 48, 14: 6, 16: 15, 18: 16, 22: 48,
        }

    def test_anticanonical_on_boundary(self):
        nef = nef_cone()
        assert nef["anticanonical_nef"]
        assert not nef["anticanonical_interior"]

    def test_duality_pairings(self):
        assert nef_cone()["duality_check"]

    def test_contraction_classification(self):
        counts = classify_contractions()["counts"]
        assert counts == {"to-curve": 9, "to-surface": 11, "birational": 169}

    def test_fiber_type_is_cube_zero(self):
        cls = classify_contractions()
        for rec in cls["records"]:
            if rec["kind"] in ("to-curve", "to-surface"):
                assert rec["cube"] == 0
            else:
                assert rec["cube"] > 0


class TestOrbits:
    def test_to_curve_orbits(self):
        rep = contraction_orbit_report()
        assert rep["to_curve_orbit_sizes"] == [1, 8]
        assert rep["grass_ray_is_to_curve"]
        assert rep["grass_ray_invariant"]

    def test_to_surface_orbits(self):
        rep = contraction_orbit_report()
        assert rep["to_surface_orbit_sizes"] == [1, 2, 8]
        assert rep["surface_rep_in_orbit"] == {1: True, 2: True, 8: True}

    def test_mori_orbits(self):
        rep = contraction_orbit_report()
        assert rep["k_negative_orbit_sizes"] == [12]
        assert rep["k_negative_is_orbit_of_A0xD01"]
        assert rep["k_trivial_orbit_sizes"] == [3, 4, 12]
        assert rep["k_trivial_orbit_reps"] == {"A0*B1": 12, "A0*B0": 4, "C01*C23": 3}

    def test_orbit_sizes_divide_group_order(self):
        rep = contraction_orbit_report()
        for sizes in (
            rep["to_curve_orbit_sizes"],
            rep["to_surface_orbit_sizes"],
            rep["k_negative_orbit_sizes"],
            rep["k_trivial_orbit_sizes"],
        ):
            assert all(48 % s == 0 for s in sizes)

    def test_action_preserves_cones(self):
        rep = group_preserves_cones()
        assert rep["mori_preserved"] and rep["nef_preserved"]

    def test_foreign_vectors_raise(self):
        with pytest.raises(RuntimeError):
            orbit_sizes([primitive_vector(curve_class("A0", "B1"))], act_on_curve)
            # a single ray of a larger orbit cannot be closed under the action


class TestMulticanSweep:
    def test_nonnegative_and_negative_boundary(self):
        rep = multican_nonnegative_on_mori()
        assert rep["multican_nonnegative"]
        assert rep["k_trivial_rays_meet_boundary_negatively"]


class TestFlagSections:
    def test_full_report(self):
        f = partial_flag_cones()
        assert f["n1_ray_count"] == 10 and f["n1_facet_count"] == 10
        assert f["n1p_ray_count"] == 10 and f["n1p_facet_count"] == 10
        assert f["tau_swaps_sections"]
        assert f["barycenter_matches_l2"] and f["barycenter_matches_l2p"]
        assert f["l2_cube"] == 0 and f["l2p_cube"] == 0
        assert f["n1_rays_are_m1_plus_extra"]
        assert f["n1p_rays_are_m1p_plus_extra"]
        assert f["x13_ray_invariant"]
        assert f["restriction_positivity"]

    def test_extra_ray_membership(self):
        # the listed second-section generator is one of the extra rays
        from tilefold.conelab import FLAG_N1_EXTRA

        assert ("A2", "A3", "C01", "D23") in FLAG_N1_EXTRA


class TestEffectiveCone:
    def test_generators_and_extremality(self):
        e = effective_cone_analysis()
        assert e["generator_count"] == 24
        assert e["extremal_ray_count"] == 24
        assert e["all_generators_extremal"]

    def test_dual_inclusion(self):
        e = effective_cone_analysis()
        assert e["dual_included_in_moving_dual"]

    def test_group_preserves_effective_generators(self):
        assert effective_cone_analysis()["group_preserves_generators"]

    def _recompute_with(self, monkeypatch, name, patched):
        """effective_cone_analysis with conelab.<name> replaced; cache restored."""
        monkeypatch.setattr(conelab, name, patched)
        effective_cone_analysis.cache_clear()
        try:
            return effective_cone_analysis()
        finally:
            monkeypatch.undo()
            effective_cone_analysis.cache_clear()
            effective_cone_analysis()

    def test_orbit_reduction_needs_invariant_moving_dual(self, monkeypatch):
        # one generator short, the moving dual is no longer a union of orbits
        real = conelab.moving_dual_cone()
        short = {**real, "generators": real["generators"][1:]}
        with pytest.raises(RuntimeError, match="moving dual generators"):
            self._recompute_with(monkeypatch, "moving_dual_cone", lambda: short)
        assert effective_cone_analysis()["dual_included_in_moving_dual"]

    def test_orbit_reduction_needs_dual_orbits_among_dual_rays(self, monkeypatch):
        real = conelab.dual_cone

        def dual_missing_a_ray(c):
            d = real(c)
            return dataclasses.replace(d, rays=d.rays[1:])

        with pytest.raises(RuntimeError, match="does not permute the ray set"):
            self._recompute_with(monkeypatch, "dual_cone", dual_missing_a_ray)
        assert effective_cone_analysis()["dual_ray_count"] == 294

    def test_dual_rays_fall_into_26_orbits(self):
        # one effective-cone LP per orbit: 26 instead of 294
        prim = {primitive_vector(v) for v in effective_generators().values()}
        dual = dual_cone(Cone.from_rays(12, sorted(prim)))
        orbits = orbit_decomposition(dual.rays, act_on_curve)
        assert len(orbits) == 26
        assert sum(len(o) for o in orbits) == len(dual.rays) == 294
        assert all(48 % len(o) == 0 for o in orbits)
        assert all(set(o) == orbit(o[0], act_on_curve) for o in orbits)

    def test_k_trivial_span_rank(self):
        e = effective_cone_analysis()
        assert e["span_ranks_equal"]
        assert e["k_trivial_span_rank"] == e["ab_span_rank"]

    def test_pairings(self):
        p = pairing_checks()
        assert p["s_dot_gamma1"] == -1
        assert p["h0123_dot_gamma2"] == -1
        assert p["gamma1_degrees_expected"]
        assert p["gamma2_degrees_expected"]

    def test_gamma_degrees_detail(self):
        p = pairing_checks()
        for lab in LABELS:
            want = 1 if lab[0] == "D" else 0
            assert p["gamma1_boundary_degrees"][lab] == want
        got = {lab for lab, v in p["gamma2_boundary_degrees"].items() if v}
        assert got == {"D01", "D23", "C12", "C13", "C02", "C03"}
        assert all(v in (0, 1) for v in p["gamma2_boundary_degrees"].values())

    def test_effective_contains_nef_generators(self):
        # nef divisors are effective here; every nef ray lies in the cone
        from tilefold.conelab import nef_cone
        from tilefold.polyhedra import Cone

        eff = Cone.from_rays(
            12, sorted({primitive_vector(v) for v in effective_generators().values()})
        )
        for r in nef_cone()["cone"].rays:
            assert eff.contains(r)
