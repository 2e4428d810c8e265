from __future__ import annotations

import math

import numpy as np
import pytest

from framerisk import (
    FrameGeometry,
    damaged_bending_strength,
    global_pancake_strength,
    intact_bending_strength,
    intact_pancake_strength,
    local_pancake_strength,
)

REF = FrameGeometry(8, 9, 6.0, 3.0)

# each strength function with a call it accepts, by the arguments it checks
ACCEPTED = [
    (intact_bending_strength, {"b_y": 7.4118, "psi": 0.0}),
    (damaged_bending_strength, {"b_y": 15.3, "n_rc": 1, "psi": 0.0}),
    (intact_pancake_strength, {"r_c": 140.55}),
    (local_pancake_strength, {"r_c": 162.07, "n_rc": 1, "n_rs": 1}),
    (global_pancake_strength, {"r_c": 162.07, "n_rc": 1, "n_rs": 1}),
]


def random_geometries(n, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(
            FrameGeometry(
                n_s=int(rng.integers(1, 40)),
                n_c=int(rng.integers(3, 30)),
                L=float(rng.uniform(2.0, 12.0)),
                H=float(rng.uniform(2.0, 6.0)),
            )
        )
    return out


class TestIntactBending:
    def test_hand_value(self):
        # 16 * 7.4118 / 36
        assert intact_bending_strength(REF, 7.4118) == pytest.approx(3.2941333, abs=1e-6)

    def test_catenary_factor(self):
        base = intact_bending_strength(REF, 7.4118)
        assert intact_bending_strength(REF, 7.4118, psi=2.0) == pytest.approx(1.25 * base, rel=1e-12)

    def test_algebraic_inversion(self):
        rng = np.random.default_rng(3)
        for geom in random_geometries(50):
            b_y = float(rng.uniform(0.5, 50.0))
            q = intact_bending_strength(geom, b_y)
            assert q * geom.L**2 / 16.0 == pytest.approx(b_y, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            intact_bending_strength(REF, -1.0)
        with pytest.raises(ValueError):
            intact_bending_strength(REF, 1.0, psi=4.5)


class TestDamagedBending:
    def test_single_column_loss(self):
        assert damaged_bending_strength(REF, 15.3, 1) == pytest.approx(1.70, abs=1e-9)

    def test_two_column_loss(self):
        # effective span rule: strength falls as 1/n_rc
        assert damaged_bending_strength(REF, 15.3, 2) == pytest.approx(0.85, abs=1e-9)

    def test_catenary_factor(self):
        assert damaged_bending_strength(REF, 15.3, 1, psi=2.0) == pytest.approx(1.5 * 1.70, rel=1e-12)

    def test_monotone_decreasing_in_damage(self):
        for geom in random_geometries(100, seed=11):
            if geom.n_c < 4:
                continue
            qs = [damaged_bending_strength(geom, 10.0, n) for n in range(1, geom.n_c - 1)]
            assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_zero_damage_is_an_error(self):
        with pytest.raises(ValueError):
            damaged_bending_strength(REF, 15.3, 0)


class TestIntactPancake:
    def test_hand_value(self):
        assert intact_pancake_strength(REF, 140.55) == pytest.approx(3.294140625, abs=1e-9)

    def test_smallest_frame(self):
        assert intact_pancake_strength(FrameGeometry(1, 2, 1.0, 1.0), 1.0) == pytest.approx(2.0)

    def test_linearity(self):
        for geom in random_geometries(50, seed=5):
            assert intact_pancake_strength(geom, 20.0) == pytest.approx(
                2.0 * intact_pancake_strength(geom, 10.0), rel=1e-12
            )


class TestLocalPancake:
    def test_hand_value(self):
        assert local_pancake_strength(REF, 162.07, 1, 1) == pytest.approx(1.7000350, abs=1e-6)

    def test_linear_scaling(self):
        assert local_pancake_strength(REF, 162.07 * 1.3, 1, 1) == pytest.approx(2.2100455, abs=1e-6)

    def test_full_height_removal_drops_damage_term(self):
        geom = FrameGeometry(6, 8, 5.0, 3.0)
        q = local_pancake_strength(geom, 90.0, 2, geom.n_s)
        direct = 90.0 / geom.L / (geom.n_s * (2.0 - (geom.n_c - 1) / geom.n_c))
        assert q == pytest.approx(direct, rel=1e-12)

    def test_monotone_decreasing_in_damage(self):
        for geom in random_geometries(100, seed=13):
            if geom.n_c < 4 or geom.n_s < 2:
                continue
            qs = [local_pancake_strength(geom, 50.0, n, 1) for n in range(1, geom.n_c - 1)]
            assert all(a > b for a, b in zip(qs, qs[1:]))


class TestGlobalPancake:
    def test_reduces_to_intact_at_zero_damage(self):
        for geom in random_geometries(1000, seed=17):
            for n_rs in (0, geom.n_s // 2, geom.n_s):
                q0 = global_pancake_strength(geom, 33.3, 0, n_rs)
                assert q0 == pytest.approx(intact_pancake_strength(geom, 33.3), rel=1e-12)

    def test_hand_value(self):
        assert global_pancake_strength(REF, 162.07, 1, 1) == pytest.approx(3.1268, abs=1e-4)

    def test_strength_does_not_vanish_at_maximum_damage(self):
        # inherited regime, unreachable by the progression chain
        q = global_pancake_strength(REF, 162.07, REF.n_c - 1, 1)
        assert q > 0.0

    def test_homogeneity(self):
        for geom in random_geometries(50, seed=19):
            n_rc = min(2, geom.n_c - 2)
            if n_rc < 1:
                continue
            assert global_pancake_strength(geom, 24.0, n_rc, 1) == pytest.approx(
                3.0 * global_pancake_strength(geom, 8.0, n_rc, 1), rel=1e-12
            )


def test_catenary_dominance():
    rng = np.random.default_rng(23)
    for geom in random_geometries(100, seed=29):
        if geom.n_c < 3:
            continue
        b_y = float(rng.uniform(1.0, 30.0))
        psi = float(rng.uniform(0.01, 4.0))
        assert intact_bending_strength(geom, b_y, psi) > intact_bending_strength(geom, b_y)
        assert damaged_bending_strength(geom, b_y, 1, psi) > damaged_bending_strength(geom, b_y, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function, kwargs, name",
                         [pytest.param(f, kw, name, id=f"{f.__name__}-{name}") for f, kw in ACCEPTED for name in kw])
def test_non_finite_arguments_are_value_errors(function, kwargs, name, value):
    # a comparison with NaN is false, so a check such as b_y <= 0 lets NaN through
    assert math.isfinite(function(REF, **kwargs))
    with pytest.raises(ValueError, match=f"{name} must be in"):
        function(REF, **{**kwargs, name: value})
