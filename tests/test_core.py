"""Tests for weighted spaces, norms and Bochner fields."""

import math

import numpy as np
import pytest

from maxlab.core import (
    ABS_TOL,
    BanachNormDescriptor,
    BochnerField,
    WeightedSpace,
    bochner_norm,
    fiber_norm,
    field_parts,
    lp_norm,
    lp_norms,
    random_field,
)
from oracles import total_mass


def test_weighted_space_validation():
    sp = WeightedSpace(np.array([0.5, 1.5, 2.0]))
    assert sp.n == 3
    assert total_mass(sp) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        WeightedSpace(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedSpace(np.array([1.0, -0.2]))
    with pytest.raises(ValueError):
        WeightedSpace(np.array([]))
    with pytest.raises(ValueError):
        WeightedSpace(np.array([1.0, np.nan]))


def test_weighted_space_mass_is_readonly():
    sp = WeightedSpace(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sp.mu[0] = 5.0


def test_verdict_slacks_are_fixed_constants():
    from maxlab.cli import QUAD_TOL
    from maxlab.modulus import MODULUS_STAB_TOL

    assert ABS_TOL == 1e-10
    assert QUAD_TOL == 1e-6
    assert MODULUS_STAB_TOL == 1e-8


def test_lp_norm_frozen_values():
    sp = WeightedSpace(np.array([0.5, 2.0]))
    f = np.array([3.0, -1.0])
    # p = 2: sqrt(0.5*9 + 2*1) = sqrt(6.5)
    assert lp_norm(sp, f, 2.0) == pytest.approx(math.sqrt(6.5), rel=1e-15)
    # p = 1: 0.5*3 + 2*1 = 3.5
    assert lp_norm(sp, f, 1.0) == pytest.approx(3.5, rel=1e-15)
    # sup norm ignores the weights
    assert lp_norm(sp, f, math.inf) == 3.0


def test_lp_norm_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        sp = WeightedSpace(rng.uniform(0.1, 3.0, n))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = complex(rng.standard_normal(), rng.standard_normal())
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            nf = lp_norm(sp, f, p)
            # homogeneity and triangle inequality
            assert lp_norm(sp, c * f, p) == pytest.approx(abs(c) * nf, rel=1e-12, abs=1e-14)
            assert lp_norm(sp, f + g, p) <= nf + lp_norm(sp, g, p) + 1e-12
        assert lp_norm(sp, np.zeros(n), 2.0) == 0.0


def test_lp_norm_rejects_bad_exponent():
    sp = WeightedSpace(np.array([1.0]))
    with pytest.raises(ValueError):
        lp_norm(sp, np.array([1.0]), 0.5)


def test_banach_descriptor_validation():
    d = BanachNormDescriptor(3, 2.0)
    assert not d.is_sup
    assert BanachNormDescriptor(1, math.inf).is_sup
    with pytest.raises(ValueError):
        BanachNormDescriptor(0, 2.0)
    with pytest.raises(ValueError):
        BanachNormDescriptor(2, 1.0)
    with pytest.raises(ValueError):
        BanachNormDescriptor(2, 0.5)


def test_pointwise_banach_norm_matches_manual():
    rng = np.random.default_rng(3)
    sp = WeightedSpace(rng.uniform(0.5, 2.0, 5))
    values = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    for r in (2.0, 4.0, math.inf):
        field = BochnerField(values, BanachNormDescriptor(4, r))
        got = fiber_norm(field.values, field.norm.r)
        if math.isinf(r):
            want = np.abs(values).max(axis=1)
        else:
            want = (np.abs(values) ** r).sum(axis=1) ** (1.0 / r)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        # bochner norm composes the fiber norm with the weighted p norm
        assert bochner_norm(sp, field, 3.0) == pytest.approx(lp_norm(sp, want, 3.0), rel=1e-13)


def test_bochner_field_shape_checks():
    desc = BanachNormDescriptor(3, 2.0)
    with pytest.raises(ValueError):
        BochnerField(np.zeros((4,)), desc)
    with pytest.raises(ValueError):
        BochnerField(np.zeros((4, 2)), desc)
    field = BochnerField(np.zeros((4, 3)), desc)
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0


def test_single_column_field_matches_scalar_norm():
    rng = np.random.default_rng(8)
    sp = WeightedSpace(rng.uniform(0.5, 2.0, 6))
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    field = BochnerField(f[:, None], BanachNormDescriptor(1, 2.0))
    for p in (1.0, 2.0, math.inf):
        assert bochner_norm(sp, field, p) == pytest.approx(lp_norm(sp, f, p), rel=1e-14)


def test_field_parts_stacks_a_batch_of_fields():
    sp = WeightedSpace(np.ones(3))
    rng = np.random.default_rng(80)
    desc = BanachNormDescriptor(2, 3.0)
    fields = [BochnerField(rng.standard_normal((3, 2)), desc) for _ in range(4)]
    values, r = field_parts(sp, fields, batch=True)
    assert values.shape == (3, 4, 2) and r == 3.0
    for j, f in enumerate(fields):
        assert np.array_equal(values[:, j], f.values)
    # a scalar field is the field of d = 1; a list of numbers or a bare array is refused
    values, r = field_parts(sp, BochnerField(np.array([[1.0], [2.0], [3.0]]),
                                             BanachNormDescriptor(1, 2.0)), batch=True)
    assert values.shape == (3, 1) and r == 2.0
    for bare in ([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])):
        with pytest.raises(ValueError):
            field_parts(sp, bare, batch=True)


def test_field_parts_rejects_bad_batches():
    sp = WeightedSpace(np.ones(3))
    f = BochnerField(np.ones((3, 2)), BanachNormDescriptor(2, 2.0))
    bad = (
        [],                                                              # empty
        [f, BochnerField(np.ones((3, 2)), BanachNormDescriptor(2, 4.0))],  # mixed r
        [f, BochnerField(np.ones((3, 1)), BanachNormDescriptor(1, 2.0))],  # mixed d
        [f, BochnerField(np.ones((4, 2)), BanachNormDescriptor(2, 2.0))],  # mixed n
        [BochnerField(np.ones((4, 2)), BanachNormDescriptor(2, 2.0))],     # n off the space
        [f, np.ones(3)],                                                 # not all Bochner
    )
    for fields in bad:
        with pytest.raises(ValueError):
            field_parts(sp, fields, batch=True)
    # only the maximal functions take a batch
    with pytest.raises(ValueError, match="not a list"):
        field_parts(sp, [f, f])
    with pytest.raises(ValueError):
        bochner_norm(sp, [f, f], 2.0)


def test_random_field_draws_real_parts_then_imaginary_parts():
    descriptor = BanachNormDescriptor(3, 4.0)
    field = random_field(np.random.default_rng(11), 5, descriptor)
    rng = np.random.default_rng(11)
    expected = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert field.values.tobytes() == expected.tobytes()
    assert field.norm is descriptor


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_norms_equal_lp_norm_row_by_row(p):
    rng = np.random.default_rng(29)
    for n in range(2, 17):
        sp = WeightedSpace(rng.uniform(0.1, 3.0, n))
        real = rng.standard_normal((6, n))
        complex_rows = real + 1j * rng.standard_normal((6, n))
        for f in (real, complex_rows, complex_rows.reshape(2, 3, n)):
            got = lp_norms(sp, f, p)
            assert got.shape == f.shape[:-1]
            want = np.array([lp_norm(sp, row, p) for row in f.reshape(-1, n)])
            assert got.tobytes() == want.tobytes()
        assert lp_norms(sp, real[0], p).shape == ()
        assert float(lp_norms(sp, real[0], p)) == lp_norm(sp, real[0], p)


def test_lp_norms_take_one_scalar_root_per_entry():
    from numpy._core._multiarray_umath import __cpu_features__

    rng = np.random.default_rng(0)
    sp = WeightedSpace(rng.uniform(0.5, 2.0, 4))
    f = rng.standard_normal((80, 4))
    for p in (1.5, 3.0):
        want = np.array([lp_norm(sp, row, p) for row in f])
        assert lp_norms(sp, f, p).tobytes() == want.tobytes()
        sums = np.array([sp.mu @ np.abs(row) ** p for row in f])
        # numpy's AVX-512 pow rounds some of these roots differently from the scalar pow
        if __cpu_features__.get("AVX512_SKX"):
            assert np.any(sums ** (1.0 / p) != want)


def test_lp_norms_rejects_bad_input():
    sp = WeightedSpace(np.ones(3))
    for shape in ((), (4,), (2, 4)):
        with pytest.raises(ValueError, match="expected"):
            lp_norms(sp, np.ones(shape), 2.0)
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norms(sp, np.ones((2, 3)), 0.5)
