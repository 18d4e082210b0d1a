"""Rectangle probabilities: product measures, copulas, Gaussian kernels."""

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from treeval.measure import (ClaytonCopula, CopulaMeasure, GaussianKernel,
                             IndependenceCopula, NormalMarginal,
                             ProductMeasure, UniformMarginal,
                             normal_interval_prob, rect_prob_copula,
                             rect_prob_gaussian, rect_prob_product)


def test_normal_marginal_cdf_matches_scipy():
    m = NormalMarginal(mu=0.3, sigma=2.0)
    x = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(m.cdf(x), ndtr((x - 0.3) / 2.0), rtol=0, atol=0)


def test_uniform_marginal_cdf_hand_values():
    m = UniformMarginal(a=1.0, b=3.0)
    np.testing.assert_array_equal(m.cdf([0.0, 1.0, 2.0, 3.0, 4.0]),
                                  [0.0, 0.0, 0.5, 1.0, 1.0])


def test_marginal_validation():
    with pytest.raises(ValueError):
        NormalMarginal(sigma=0.0)
    with pytest.raises(ValueError):
        UniformMarginal(a=1.0, b=1.0)


def test_product_measure_normalization_and_half_space():
    q = ProductMeasure.standard_normal(2, 3)
    full = rect_prob_product(q, 1, [-np.inf, -np.inf], [np.inf, np.inf])
    assert full == 1.0
    half = rect_prob_product(q, 0, [0.0, -np.inf], [np.inf, np.inf])
    assert half == 0.5


def test_product_measure_box_value():
    q = ProductMeasure.standard_normal(2, 1)
    box = rect_prob_product(q, 0, [-1.0, -1.0], [1.0, 1.0])
    edge = ndtr(1.0) - ndtr(-1.0)
    assert box == pytest.approx(edge * edge, rel=1e-15)


def test_product_measure_additivity():
    q = ProductMeasure.standard_normal(2, 1)
    lo, hi = np.array([-0.7, -1.2]), np.array([1.4, 0.9])
    whole = rect_prob_product(q, 0, lo, hi)
    cut = 0.3
    left = rect_prob_product(q, 0, lo, [cut, hi[1]])
    right = rect_prob_product(q, 0, [cut, lo[1]], hi)
    assert abs(whole - (left + right)) < 1e-10


def test_product_measure_mixed_marginals():
    grid = ((UniformMarginal(0.0, 1.0),), (NormalMarginal(),))
    q = ProductMeasure(grid=grid, dims=(2, 1))
    p = rect_prob_product(q, 0, [0.25, -np.inf], [0.75, 0.0])
    assert p == pytest.approx(0.5 * 0.5, rel=1e-15)


def test_period_probs_index_validation():
    q = ProductMeasure.standard_normal(1, 2)
    with pytest.raises(ValueError):
        q.period_probs(2, np.zeros((1, 1)), np.ones((1, 1)))


def test_independence_copula_equals_product():
    d, T = 3, 2
    q = ProductMeasure.standard_normal(d, T)
    c = CopulaMeasure(grid=q.grid, copulas=tuple(IndependenceCopula() for _ in range(T)),
                      dims=(d, T))
    rng = np.random.default_rng(41)
    for _ in range(25):
        lo = rng.standard_normal(d) - 1.0
        hi = lo + np.abs(rng.standard_normal(d)) + 0.1
        s = int(rng.integers(0, T))
        assert abs(rect_prob_copula(c, s, lo, hi)
                   - rect_prob_product(q, s, lo, hi)) < 1e-12


def test_clayton_copula_hand_corner_values():
    cop = ClaytonCopula(theta=2.0)
    # C(u, v) = (u^-2 + v^-2 - 1)^(-1/2)
    u = np.array([0.5, 0.8])
    expect = (0.5**-2 + 0.8**-2 - 1.0) ** -0.5
    assert cop.cdf(u) == pytest.approx(expect, rel=1e-15)
    # zero coordinate forces zero mass
    assert cop.cdf(np.array([0.0, 0.7])) == 0.0


def test_clayton_requires_positive_theta():
    with pytest.raises(ValueError):
        ClaytonCopula(theta=0.0)
    with pytest.raises(ValueError):
        ClaytonCopula(theta=-1.0)


def test_clayton_rectangle_matches_sampling_oracle():
    # simulate the copula by the marginal algorithm: V ~ Gamma(1/theta),
    # U_j = (1 - log(E_j)/V)^(-1/theta) with E_j standard exponential
    theta = 1.5
    d = 2
    q = CopulaMeasure.clayton(theta, d, 1)
    rng = np.random.default_rng(7)
    n = 200_000
    v = rng.gamma(1.0 / theta, size=n)
    e = rng.exponential(size=(n, d))
    u = (1.0 + e / v[:, None]) ** (-1.0 / theta)
    z = np.array([ndtr_inverse(col) for col in u.T]).T
    lo = np.array([-0.8, -0.5])
    hi = np.array([0.9, 1.1])
    hits = ((z > lo) & (z <= hi)).all(axis=1)
    est = hits.mean()
    se = hits.std(ddof=1) / np.sqrt(n)
    exact = rect_prob_copula(q, 0, lo, hi)
    assert abs(exact - est) < 4 * se


def ndtr_inverse(u):
    from scipy.special import ndtri
    return ndtri(np.clip(u, 1e-15, 1 - 1e-15))


def test_clayton_rectangle_touching_zero_boundary():
    q = CopulaMeasure.clayton(2.0, 2, 1)
    p = rect_prob_copula(q, 0, [-np.inf, -np.inf], [0.0, 0.0])
    assert 0.0 <= p <= 1.0
    full = rect_prob_copula(q, 0, [-np.inf, -np.inf], [np.inf, np.inf])
    assert full == pytest.approx(1.0, abs=1e-12)


def test_corner_sum_rejects_high_dimension():
    # 2^d corner evaluations per cell and period: the measure refuses d > 16
    for d in (26, 17):
        with pytest.raises(ValueError, match="2\\^16 terms per cell and period"):
            CopulaMeasure.clayton(1.0, d, 1)
    assert CopulaMeasure.clayton(1.0, 16, 1).dims == (16, 1)


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        GaussianKernel(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        GaussianKernel(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
    GaussianKernel(mean=np.zeros(2), cov=np.eye(2))  # fine


def test_normal_interval_prob_matches_cdf_difference():
    mu, sd = 0.4, 1.3
    lo, hi = -0.2, 2.0
    expect = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
    assert normal_interval_prob(mu, sd, lo, hi) == pytest.approx(expect, rel=1e-15)


def test_normal_interval_prob_degenerate_sd():
    assert normal_interval_prob(0.5, 0.0, 0.0, 1.0) == 1.0
    assert normal_interval_prob(1.5, 0.0, 0.0, 1.0) == 0.0
    assert normal_interval_prob(0.0, 0.0, 0.0, 1.0) == 0.0  # lower edge open
    assert normal_interval_prob(1.0, 0.0, 0.0, 1.0) == 1.0  # upper edge closed


def test_gaussian_rect_diagonal_exact():
    kern = GaussianKernel(mean=np.array([0.5, -0.5]),
                          cov=np.diag([1.0, 4.0]))
    res = rect_prob_gaussian(kern, [-1.0, -2.0], [1.0, 2.0])
    expect = ((ndtr((1 - 0.5) / 1.0) - ndtr((-1 - 0.5) / 1.0))
              * (ndtr((2 + 0.5) / 2.0) - ndtr((-2 + 0.5) / 2.0)))
    assert res.converged
    assert res.error == 0.0
    assert res.estimate == pytest.approx(expect, rel=1e-14)


def test_gaussian_rect_correlated_matches_scipy():
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    mean = np.array([0.1, -0.2])
    lo = np.array([-0.9, -1.4])
    hi = np.array([0.8, 1.2])
    res = rect_prob_gaussian(GaussianKernel(mean, cov), lo, hi, abs_tol=1e-6)
    mvn = multivariate_normal(mean=mean, cov=cov)
    truth = (mvn.cdf(hi) - mvn.cdf([lo[0], hi[1]])
             - mvn.cdf([hi[0], lo[1]]) + mvn.cdf(lo))
    assert res.converged
    assert res.error <= 1e-6
    assert abs(res.estimate - truth) < max(5 * res.error, 5e-6)


def test_gaussian_rect_reports_nonconvergence_honestly():
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    kern = GaussianKernel(mean=np.array([0.1, -0.2]), cov=cov)
    res = rect_prob_gaussian(kern, [-0.9, -1.4], [0.8, 1.2],
                             abs_tol=1e-12, max_points=2048)
    assert not res.converged
    assert res.error > 1e-12


def test_gaussian_rect_zero_variance_dimension():
    cov = np.array([[1.0, 0.0], [0.0, 0.0]])
    kern = GaussianKernel(mean=np.array([0.0, 0.3]), cov=cov)
    inside = rect_prob_gaussian(kern, [-1.0, 0.0], [1.0, 1.0])
    expect = ndtr(1.0) - ndtr(-1.0)
    assert inside.estimate == pytest.approx(expect, rel=1e-14)
    outside = rect_prob_gaussian(kern, [-1.0, 0.5], [1.0, 1.0])
    assert outside.estimate == 0.0
    assert outside.converged


def test_gaussian_rect_deterministic_default_rng():
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    kern = GaussianKernel(mean=np.zeros(2), cov=cov)
    a = rect_prob_gaussian(kern, [-1.0, -1.0], [0.5, 0.5])
    b = rect_prob_gaussian(kern, [-1.0, -1.0], [0.5, 0.5])
    assert a.estimate == b.estimate
    assert a.error == b.error


def test_gaussian_rect_full_space_is_one():
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    kern = GaussianKernel(mean=np.zeros(2), cov=cov)
    res = rect_prob_gaussian(kern, [-np.inf, -np.inf], [np.inf, np.inf])
    assert res.estimate == pytest.approx(1.0, abs=1e-9)
