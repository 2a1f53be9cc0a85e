"""Tests for generators, semigroup evolution, sector probes and imaginary powers."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from maxlab.core import ABS_TOL, BanachNormDescriptor, BochnerField, WeightedSpace, bochner_norm
from maxlab.spectral import (
    MuSymmetricOperator,
    apply_multiplier,
    decompose,
    eigen_residual,
    operator_norm,
    operator_norm_lower_bound,
    orthonormality_defect,
)
from maxlab.semigroup import (
    _imaginary_power_values,
    ContractionSemigroupGenerator,
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    ensemble_diagnostics,
    evolve,
    exemplar_contraction_generator,
    imaginary_power,
    random_generator,
    sector_angles,
    sector_contraction_probe,
    sector_status,
    semigroup_matrix,
    stein_angle,
)
from oracles import imaginary_power_matrix, modulus_generator, refine_sector_grid, scalar_field

# The sampled contraction check, kept as the oracle of the exact dominance
# check made at construction: ||exp(-t L)|| <= 1 + ABS_TOL at p = 1 and
# p = inf on 24 geometric times spanning [1e-3, 1e2].
DEFAULT_T_GRID = np.geomspace(1e-3, 1e2, 24)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of the sampled contraction check over a time grid."""

    passed: bool
    worst_norm: float
    worst_t: float


def verify_contraction_property(gen, t_grid=DEFAULT_T_GRID) -> ContractionReport:
    """Largest endpoint norm of exp(-t L) over the grid; an overflowing exp(-t lambda)
    (a negative eigenvalue) fails with an infinite norm."""
    lam_min = float(gen.decomposition.eigenvalues.min())
    worst = -math.inf
    worst_t = float(t_grid[0])
    for t in np.asarray(t_grid, dtype=float):
        with np.errstate(over="ignore"):
            growth = np.exp(-t * lam_min)
        if not np.isfinite(growth):
            return ContractionReport(passed=False, worst_norm=math.inf, worst_t=float(t))
        m = semigroup_matrix(gen, t)
        for p in (1.0, math.inf):
            norm = operator_norm(gen.space, m, p)
            if norm > worst:
                worst, worst_t = norm, float(t)
    return ContractionReport(passed=bool(worst <= 1.0 + ABS_TOL), worst_norm=float(worst),
                             worst_t=worst_t)


def test_random_generator_structure():
    for seed in range(10):
        gen = random_generator(6, seed, kind="diffusion")
        a = gen.matrix
        off = a - np.diag(np.diag(a))
        assert np.all(off <= 1e-14)
        assert np.all(a.sum(axis=1) >= -1e-12)
        assert np.all(gen.decomposition.eigenvalues >= 0.0)
        assert gen.injective
        # contraction draw is a sign conjugate, so endpoint norms agree
        con = random_generator(6, seed, kind="contraction")
        for p in (1.0, math.inf):
            assert operator_norm(con.space, semigroup_matrix(con, 0.7), p) \
                == pytest.approx(operator_norm(gen.space, semigroup_matrix(gen, 0.7), p),
                                 rel=1e-12)


def test_random_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_generator(0, 1)
    with pytest.raises(ValueError):
        random_generator(4, 1, kind="markov")
    with pytest.raises(ValueError):
        random_generator(4, 1, c=-2.0)


def test_contraction_draw_is_a_sign_conjugate_of_the_diffusion_draw():
    for n in (2, 3, 8):
        for seed in range(5):
            diff = random_generator(n, 100 * n + seed, kind="diffusion")
            con = random_generator(n, 100 * n + seed, kind="contraction")
            np.testing.assert_array_equal(con.space.mu, diff.space.mu)
            # the off-diagonal entries of a diffusion draw are strictly negative
            signs = np.sign(con.matrix[0] / diff.matrix[0])
            signs[0] = 1.0
            assert set(signs) == {-1.0, 1.0}
            np.testing.assert_array_equal(con.matrix, signs[:, None] * diff.matrix * signs[None, :])
            assert type(con) is ContractionSemigroupGenerator
    # one point admits no sign conjugation, so the draw stays a diffusion
    assert type(random_generator(1, 5, kind="contraction")) is DiffusionGenerator


def test_random_generator_decomposes_once_per_draw(monkeypatch):
    import maxlab.semigroup as semigroup

    calls = []
    monkeypatch.setattr(semigroup, "decompose", lambda op: calls.append(op) or decompose(op))
    for kind in ("diffusion", "contraction"):
        for n in (1, 2, 6):
            calls.clear()
            gen = random_generator(n, 40 + n, kind=kind)
            # the contraction check at construction needs no decomposition
            assert calls == []
            assert gen.decomposition.eigenvalues.size == n
            assert len(calls) == 1
            assert calls[0] is gen.operator
            # later uses read the cached one
            assert gen.decomposition is gen.decomposition
            assert len(calls) == 1
    calls.clear()
    build_ensemble(EnsembleSpec(n=4, count=5, kind="contraction"), 3)
    assert calls == []


def test_spectrum_stays_above_five_percent_of_the_rate():
    # the largest row sum of P is at most 0.95, so spec(L) lies in [0.05 c, 1.95 c]
    for c in np.geomspace(1e-8, 1e8, 9):
        for kind in ("diffusion", "contraction"):
            for seed in range(4):
                lam = random_generator(8, 300 + seed, kind=kind, c=float(c)).decomposition.eigenvalues
                assert lam.min() >= 0.05 * c * (1.0 - 1e-12)
                assert lam.max() <= 1.95 * c * (1.0 + 1e-12)


def test_diffusion_validation_rejects_sign_violations():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    # positive off-diagonal entries are not a diffusion generator
    with pytest.raises(ValueError):
        DiffusionGenerator(MuSymmetricOperator(sp, np.array([[1.0, 1.0], [1.0, 1.0]])))
    # but they are an admissible plain contraction generator
    ContractionSemigroupGenerator(MuSymmetricOperator(sp, np.array([[1.0, 1.0], [1.0, 1.0]])))


def _unchecked(op):
    """Generator-like view of an operator that skips every construction check."""
    return SimpleNamespace(space=op.space, decomposition=decompose(op))


def test_contraction_validation_rejects_indefinite_generator():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    op = MuSymmetricOperator(sp, np.array([[0.2, -1.0], [-1.0, 0.2]]))
    with pytest.raises(ValueError):
        ContractionSemigroupGenerator(op)
    assert not verify_contraction_property(_unchecked(op)).passed


def test_positive_semidefinite_generator_can_still_break_contraction():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    # spectrum is positive but e^{-tL} inflates the sup norm for small t
    op = MuSymmetricOperator(sp, np.array([[1.0, -2.0], [-2.0, 4.2]]))
    assert np.all(np.linalg.eigvalsh(op.entries) > 0.0)
    with pytest.raises(ValueError):
        ContractionSemigroupGenerator(op)
    report = verify_contraction_property(_unchecked(op))
    assert not report.passed
    assert report.worst_norm > 1.0


def test_contraction_check_reports_an_overflowing_semigroup():
    sp = WeightedSpace(np.ones(2))
    # eigenvalues -1e5 and 1: exp(-t lambda) overflows from t = 7.1e-3 on
    op = MuSymmetricOperator(sp, np.array([[-49999.5, -50000.5], [-50000.5, -49999.5]]))
    report = verify_contraction_property(_unchecked(op), np.array([1e-4, 1e-2, 1.0]))
    assert not report.passed
    assert report.worst_norm == math.inf
    assert report.worst_t == 1e-2


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_diffusion_sign_check_is_relative_to_the_scale(c):
    op = MuSymmetricOperator(WeightedSpace(np.ones(2)), c * np.array([[1.0, 0.005], [0.005, 1.0]]))
    # a contraction generator whose semigroup is not positivity preserving
    assert semigroup_matrix(ContractionSemigroupGenerator(op), 1.0 / c).min() < -1e-3
    with pytest.raises(ValueError, match="nonpositive off-diagonal"):
        DiffusionGenerator(op)


# Relative dominance margins of the equivalence sample: rows violating
# dominance clearly to barely, exactly dominant rows, and strictly dominant ones.
_MARGINS = tuple(-(10.0 ** -k) for k in range(3, 13)) + (0.0, 1e-12, 1e-6)
_FINE_T_GRID = np.geomspace(1e-6, 1e2, 41)


def _dominance_case(rng, c, margin, balanced):
    """Random mu-symmetric matrix with mixed signs and every row at the relative margin.

    Balanced signs make it a sign conjugate of a diffusion generator, whose
    smallest eigenvalue is then the margin itself; unbalanced signs do not.
    """
    n = int(rng.integers(2, 9))
    mu = rng.uniform(0.5, 2.0, n)
    q = rng.uniform(0.0, 1.0, (n, n))
    q = q + q.T
    if balanced:
        signs = rng.choice([-1.0, 1.0], n)
        q = -signs[:, None] * q * signs[None, :]
    else:
        signs = np.triu(rng.choice([-1.0, 1.0], (n, n)), 1)
        q = q * (signs + signs.T)
    off = q / mu[:, None]
    np.fill_diagonal(off, 0.0)
    radius = np.abs(off).sum(axis=1)
    ell = off + np.diag(radius + margin * radius.max())
    return MuSymmetricOperator(WeightedSpace(mu), c * ell)


def _grid_passes(op, t_grid):
    return verify_contraction_property(_unchecked(op), t_grid).passed


@pytest.fixture(scope="module")
def dominance_sample():
    """(c, margin, operator, passes DEFAULT_T_GRID, passes a grid down to t = 1e-6) rows."""
    rng = np.random.default_rng(2026)
    sample = []
    for c in np.geomspace(1e-8, 1e8, 9):
        for margin in _MARGINS:
            for balanced in (True, False):
                op = _dominance_case(rng, float(c), margin, balanced)
                sample.append((float(c), margin, op, _grid_passes(op, DEFAULT_T_GRID),
                               _grid_passes(op, _FINE_T_GRID)))
    return sample


def _constructs(op):
    try:
        ContractionSemigroupGenerator(op)
    except ValueError:
        return False
    return True


def _loosely_constructs(op):
    """Dominance and spectrum checked at ABS_TOL * max|L| instead of rounding level."""
    a = op.entries
    tol = ABS_TOL * np.abs(a).max()
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    return bool((a.diagonal() - off.sum(axis=1)).min() >= -tol
                and decompose(op).eigenvalues.min() >= -tol)


def _grid_rejects_but_accepted(accepts, sample):
    return [(c, margin) for c, margin, op, coarse, _ in sample if not coarse and accepts(op)]


def _accepted_but_a_grid_fails(accepts, sample):
    return [(c, margin) for c, margin, op, coarse, fine in sample
            if accepts(op) and not (coarse and fine)]


def test_construction_agrees_with_the_sampled_contraction_check(dominance_sample):
    assert _grid_rejects_but_accepted(_constructs, dominance_sample) == []
    assert _accepted_but_a_grid_fails(_constructs, dominance_sample) == []
    # the tolerance is rounding level: exact dominance passes, a 1e-12 deficit does not
    for c, margin, op, _, _ in dominance_sample:
        assert _constructs(op) == (margin >= 0.0), (c, margin)
    assert not all(coarse for _, _, _, coarse, _ in dominance_sample)


def test_loose_dominance_tolerance_misses_sampled_failures(dominance_sample):
    # negative control: ABS_TOL * max|L| accepts deficits the grid check exposes
    assert _grid_rejects_but_accepted(_loosely_constructs, dominance_sample)
    assert _accepted_but_a_grid_fails(_loosely_constructs, dominance_sample)


def test_spectrum_is_bounded_below_by_the_dominance_margin(dominance_sample):
    # Gershgorin: every eigenvalue of a constructed generator is at least
    # dominance_margin * max|L|, so a separate spectrum check could reject nothing
    constructed = 0
    for c, margin, op, _, _ in dominance_sample:
        if not _constructs(op):
            continue
        constructed += 1
        gen = ContractionSemigroupGenerator(op)
        # unsnapped spectrum of the symmetric conjugate D^(1/2) L D^(-1/2)
        s = np.sqrt(op.space.mu)
        m = (s[:, None] * op.entries) / s[None, :]
        lam_min = np.linalg.eigvalsh(0.5 * (m + m.T)).min()
        scale = np.abs(op.entries).max()
        rounding = 4.0 * op.n * np.finfo(float).eps * scale
        assert lam_min >= gen.dominance_margin * scale - rounding, (c, margin)
    assert constructed > 0


def test_dominance_margin_values():
    sp = WeightedSpace(np.array([1.0, 2.0]))
    assert DiffusionGenerator(MuSymmetricOperator(sp, np.zeros((2, 2)))).dominance_margin == 0.0
    # rows exactly at dominance
    assert exemplar_contraction_generator().dominance_margin == 0.0
    # rows 2 - 1 and 1.5 - 0.5 at max|L| = 2
    op = MuSymmetricOperator(sp, np.array([[2.0, -1.0], [-0.5, 1.5]]))
    assert DiffusionGenerator(op).dominance_margin == 0.5
    for kind in ("diffusion", "contraction"):
        for seed in range(5):
            gen = random_generator(6, 60 + seed, kind=kind, c=1e6)
            assert 0.0 < gen.dominance_margin < 1.0
            assert gen.dominance_margin * np.abs(gen.matrix).max() \
                <= gen.decomposition.eigenvalues.min() * (1.0 + 1e-12)


def test_sampled_oracle_passes_on_every_default_member():
    from maxlab.cli import ExperimentConfig

    config = ExperimentConfig.from_sources("verify-semigroup")
    members = build_ensemble(config.ensemble, config.seed)
    assert len(members) == 12
    for _, gen in members:
        report = verify_contraction_property(gen)
        assert report.passed
        assert report.worst_norm <= 1.0 + ABS_TOL
        assert gen.dominance_margin > 0.0


def test_construction_never_samples_the_contraction_grid(monkeypatch, tmp_path):
    import maxlab.cli as cli
    import maxlab.modulus as modulus
    import maxlab.semigroup as semigroup
    import maxlab.spectral as spectral

    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    # the sampled check evaluates exp(-t L) and its endpoint norms on a time grid
    for module in (semigroup, cli, modulus):
        monkeypatch.setattr(module, "semigroup_matrix", counted(semigroup_matrix))
    monkeypatch.setattr(spectral, "operator_norm", counted(operator_norm))
    for kind in ("diffusion", "contraction"):
        modulus_generator(random_generator(6, 12, kind=kind))
    assert calls == []
    assert cli.main(["verify-semigroup", "--count", "3", "--out", str(tmp_path / "vs")]) == 0
    assert calls == []


def test_semigroup_matrix_against_dense_exponential():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        kind = "diffusion" if trial % 2 == 0 else "contraction"
        gen = random_generator(n, 4000 + trial, kind=kind)
        t = float(rng.uniform(0.05, 3.0))
        np.testing.assert_allclose(semigroup_matrix(gen, t), expm(-t * gen.matrix),
                                   atol=1e-11)
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        np.testing.assert_allclose(semigroup_matrix(gen, z), expm(-z * gen.matrix),
                                   atol=1e-11)


def test_semigroup_law():
    rng = np.random.default_rng(43)
    for trial in range(10):
        gen = random_generator(5, 5000 + trial, kind="contraction")
        s, t = rng.uniform(0.05, 2.0, 2)
        left = semigroup_matrix(gen, s + t)
        right = semigroup_matrix(gen, s) @ semigroup_matrix(gen, t)
        np.testing.assert_allclose(left, right, atol=1e-12)
    assert np.allclose(semigroup_matrix(gen, 0.0), np.eye(5), atol=1e-14)


def test_exemplar_closed_form():
    gen = exemplar_contraction_generator()
    np.testing.assert_array_equal(gen.matrix, np.ones((2, 2)))
    t = 0.5 * math.log(2.0)
    # eigenvalues 0 and 2; the flow mixes the projections exactly
    want = np.array([[0.75, -0.25], [-0.25, 0.75]])
    np.testing.assert_allclose(semigroup_matrix(gen, t), want, atol=1e-14)


def test_evolve_matches_matrix_action():
    gen = random_generator(6, 77, kind="diffusion")
    rng = np.random.default_rng(0)
    f = scalar_field(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    np.testing.assert_allclose(evolve(gen, 0.9, f).values, semigroup_matrix(gen, 0.9) @ f.values,
                               atol=1e-12)


def test_tensor_evolve_is_columnwise():
    gen = random_generator(5, 78, kind="contraction")
    rng = np.random.default_rng(1)
    values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    field = BochnerField(values, BanachNormDescriptor(3, 4.0))
    out = evolve(gen, 0.4 + 0.2j, field)
    assert out.norm == field.norm
    for j in range(3):
        np.testing.assert_allclose(out.values[:, j],
                                   evolve(gen, 0.4 + 0.2j, scalar_field(values[:, j])).values[:, 0],
                                   atol=1e-12)


def test_ensemble_is_reproducible():
    spec = EnsembleSpec(n=5, count=4, kind="diffusion")
    first = build_ensemble(spec, 99)
    second = build_ensemble(spec, 99)
    assert [s for s, _ in first] == [99, 99 + 1000003, 99 + 2 * 1000003, 99 + 3 * 1000003]
    for (_, a), (_, b) in zip(first, second):
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.space.mu, b.space.mu)


def test_identity_ensemble_kind():
    members = build_ensemble(EnsembleSpec(n=3, count=2, kind="identity"), 7)
    for _, gen in members:
        np.testing.assert_array_equal(gen.matrix, np.zeros((3, 3)))
        np.testing.assert_allclose(semigroup_matrix(gen, 5.0), np.eye(3), atol=1e-15)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=0)
    with pytest.raises(ValueError):
        EnsembleSpec(count=0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="other")


def test_contraction_property_over_ensemble():
    for _, gen in build_ensemble(EnsembleSpec(n=6, count=10, kind="contraction"), 31):
        report = verify_contraction_property(gen)
        assert report.passed
        assert report.worst_norm <= 1.0 + 1e-10


def test_stein_angle_values():
    assert stein_angle(2.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert stein_angle(4.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert stein_angle(4.0 / 3.0) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert stein_angle(1.01) == pytest.approx(0.5 * math.pi * (1.0 - abs(2.0 / 1.01 - 1.0)),
                                              abs=1e-15)
    with pytest.raises(ValueError):
        stein_angle(1.0)


def test_sector_grid_structure():
    grid = SectorGrid.default(0.1 * math.pi)
    points = grid.points()
    assert len(points) == 24 * 9
    for z in points:
        assert abs(np.angle(z)) <= 0.1 * math.pi + 1e-12
        assert 1e-3 * (1 - 1e-12) <= abs(z) <= 1e2 * (1 + 1e-12)
    fine = refine_sector_grid(grid)
    assert fine.radii.size == 2 * grid.radii.size - 1
    assert fine.angles.size == 2 * grid.angles.size - 1
    # refinement keeps every original node
    for r in grid.radii:
        assert np.min(np.abs(fine.radii - r)) <= 1e-12 * r
    zero = SectorGrid.default(0.0)
    assert zero.angles.size == 1 and zero.angles[0] == 0.0


@pytest.mark.parametrize("grid", [
    SectorGrid.default(0.0),
    SectorGrid.default(0.1 * math.pi),
    # angles not symmetric about 0, and 0 itself among them
    SectorGrid(0.1 * math.pi, np.geomspace(1e-2, 1e1, 5), np.array([-0.1 * math.pi, 0.0, 0.02, 0.05])),
], ids=["psi=0", "default", "lopsided"])
def test_sector_grid_points_match_the_node_loop(grid):
    loop = np.asarray([t * complex(math.cos(th), math.sin(th))
                       for t in grid.radii for th in grid.angles])
    points = grid.points()
    assert points.dtype == loop.dtype and points.shape == loop.shape
    # byte for byte, so signed zeros count too
    assert points.tobytes() == loop.tobytes()


def test_sector_angles_match_the_inline_expression():
    # the inline angle ladder that sector grids, the decay certificate, the
    # pointwise profile and mellin-table rely on
    for psi, count in ((0.0, 9), (0.0, 1), (0.1 * math.pi, 9), (0.25 * math.pi, 17), (0.3, 1)):
        old = np.zeros(1) if psi == 0.0 else np.linspace(-psi, psi, count)
        assert np.array_equal(sector_angles(psi, count), old)


def test_sector_grid_validation():
    with pytest.raises(ValueError):
        SectorGrid.default(math.pi / 2.0)
    with pytest.raises(ValueError):
        SectorGrid.default(-0.1)
    with pytest.raises(ValueError):
        SectorGrid(0.1, np.array([2.0, 1.0]), np.array([0.0]))


def test_sector_probe_respects_stein_angle():
    gen = random_generator(5, 8, kind="diffusion")
    with pytest.raises(ValueError):
        sector_contraction_probe(gen, 4.0, 0.9, trials=2, seed=0)
    report = sector_contraction_probe(gen, 4.0, 0.1 * math.pi, trials=6, seed=0)
    assert report.passed
    assert report.worst_norm <= 1.0 + 1e-9
    assert len(report.rows) == 24 * 9


def test_sector_probe_at_p_two_allows_the_full_half_plane():
    gen = random_generator(4, 9, kind="diffusion")
    report = sector_contraction_probe(gen, 2.0, 0.45 * math.pi, trials=6, seed=1)
    assert report.passed
    lam = gen.decomposition.eigenvalues
    for z_re, z_im, p, lb, ub, status in report.rows:
        # exp(-z L) is normal in L^2(mu): both bounds are its exact norm
        assert lb == ub == pytest.approx(np.abs(np.exp(-complex(z_re, z_im) * lam)).max(),
                                         rel=1e-14)
        assert status == "certified"
    assert report.worst_upper == report.worst_norm


@pytest.mark.parametrize("p, psi", [(4.0, 0.1 * math.pi), (1.5, 0.6)])
def test_sector_probe_keeps_the_per_node_lower_bounds(p, psi):
    gen = random_generator(5, 10, kind="contraction")
    grid = SectorGrid.default(psi, n_radii=4, n_angles=3)
    report = sector_contraction_probe(gen, p, psi, grid=grid, trials=3, seed=11)
    rng = np.random.default_rng(11)
    for z, (z_re, z_im, _, lb, ub, status) in zip(grid.points(), report.rows):
        # the per-node route: one matrix and one Boyd run per node, one shared stream
        assert lb == operator_norm_lower_bound(gen.space, semigroup_matrix(gen, z), p,
                                               trials=3, seed=rng)
        assert (z_re, z_im) == (z.real, z.imag)
        assert lb <= ub * (1.0 + 1e-14)
        assert status == sector_status(lb, ub)
    assert report.worst_norm == max(row[3] for row in report.rows)
    assert report.worst_upper == max(row[4] for row in report.rows)


def test_real_time_nodes_take_the_real_exponential():
    # on the real axis exp(-t L) is a real matrix; its p = 2 norm must be read
    # from numpy's real exp, bit for bit, as semigroup_matrix builds it
    from maxlab.cli import DEFAULT_SEED

    grid = SectorGrid.default(0.25 * math.pi)
    real_nodes = 0
    for member_seed, gen in build_ensemble(EnsembleSpec(n=8, count=8), DEFAULT_SEED):
        report = sector_contraction_probe(gen, 2.0, 0.25 * math.pi, grid=grid, trials=8,
                                          seed=member_seed)
        lam = gen.decomposition.eigenvalues
        for z_re, z_im, _, lb, ub, _ in report.rows:
            if z_im == 0.0:
                assert lb == ub == np.exp(-z_re * lam).max()
                real_nodes += 1
    assert real_nodes == 8 * grid.radii.size


def test_sector_status_rule():
    assert sector_status(0.5, 1.0 + 1e-10) == "certified"
    assert sector_status(1.0 + 2e-9, 1.5) == "refuted"
    assert sector_status(0.99, 1.01) == "open"


def test_imaginary_power_is_l2_isometry():
    rng = np.random.default_rng(55)
    for trial in range(10):
        gen = random_generator(7, 6000 + trial, kind="diffusion")
        f = scalar_field(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        base = bochner_norm(gen.space, f, 2.0)
        for u in (-4.0, -0.5, 0.0, 1.0, 3.3):
            assert abs(bochner_norm(gen.space, imaginary_power(gen, u, f), 2.0) - base) \
                <= 1e-10 * base


def test_imaginary_power_rows_apply_as_one_family():
    # criterion 08's route: the rows of a u grid, applied as one family, are
    # bit for bit the per-u calls, and each row is the per-u formula
    u_grid = np.linspace(-5.0, 5.0, 21)
    path = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    kernel = DiffusionGenerator(MuSymmetricOperator(WeightedSpace(np.ones(3)), path))
    rng = np.random.default_rng(56)
    for gen in (random_generator(8, 6100), random_generator(5, 6101, kind="contraction"), kernel):
        lam = gen.decomposition.eigenvalues
        powers = _imaginary_power_values(lam, u_grid)
        assert powers.shape == (u_grid.size, gen.n)
        for u, row in zip(u_grid, powers):
            want = np.ones(gen.n, dtype=complex)
            want[lam > 0.0] = np.exp(1j * float(u) * np.log(lam[lam > 0.0]))
            assert row.tobytes() == want.tobytes()
        f = rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n)
        field = BochnerField(rng.standard_normal((gen.n, 3)), BanachNormDescriptor(3, 2.0))
        images = apply_multiplier(gen.decomposition, powers, f)
        columns = apply_multiplier(gen.decomposition, powers, field.values)
        for u, image, column in zip(u_grid, images, columns):
            assert image.tobytes() == \
                imaginary_power(gen, float(u), scalar_field(f)).values[:, 0].tobytes()
            assert column.tobytes() == imaginary_power(gen, float(u), field).values.tobytes()
    assert not kernel.injective


def test_imaginary_power_group_law():
    gen = random_generator(6, 61, kind="diffusion")
    assert gen.injective
    u, v = 0.8, -2.3
    left = imaginary_power_matrix(gen, u) @ imaginary_power_matrix(gen, v)
    right = imaginary_power_matrix(gen, u + v)
    np.testing.assert_allclose(left, right, atol=1e-12)
    np.testing.assert_allclose(imaginary_power_matrix(gen, 0.0), np.eye(6), atol=1e-12)


def test_imaginary_power_kernel_convention():
    # the zero generator is fixed pointwise for every u
    sp = WeightedSpace(np.array([1.0, 2.0]))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.zeros((2, 2))))
    f = scalar_field([1.0 + 2.0j, -0.5])
    np.testing.assert_allclose(imaginary_power(gen, 1.7, f).values, f.values, atol=1e-14)


def test_p2_operator_norm_of_imaginary_power_is_one():
    for trial in range(5):
        gen = random_generator(5, 7000 + trial, kind="diffusion")
        for u in (-2.0, 0.7):
            m = imaginary_power_matrix(gen, u)
            lb = operator_norm_lower_bound(gen.space, m, 2.0, trials=20, seed=trial)
            assert lb == pytest.approx(1.0, abs=1e-10)


def test_ensemble_diagnostics_is_the_largest_residual_and_defect_over_members():
    members = build_ensemble(EnsembleSpec(n=6, count=5, kind="contraction"), 3)
    gens = [gen for _, gen in members]
    assert ensemble_diagnostics(members) == {
        "max_relative_eigen_residual": max(eigen_residual(g.operator, g.decomposition)
                                           for g in gens),
        "max_orthonormality_defect": max(orthonormality_defect(g.decomposition) for g in gens),
    }
