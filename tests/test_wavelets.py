import numpy as np
import pytest

from bearingrul import wavelets as wv
from bearingrul.errors import (
    EmptyInput,
    InvalidWindow,
    LengthMismatch,
    NegativeThreshold,
    OrderTooHigh,
    SignalTooShort,
    TooShort,
    ZeroVariance,
)

SQRT2 = np.sqrt(2.0)

# published db5 decomposition lowpass (independent of our factorization code)
DB5_LOWPASS = np.array([
    0.160102397974193, 0.603829269797189, 0.724308528437772,
    0.138428145901320, -0.242294887066382, -0.032244869584638,
    0.077571493840046, -0.006241490212798, -0.012580751999082,
    0.003335725285474,
])


# --- filter banks ---

def test_db5_sums_to_sqrt2():
    fb = wv.DB5
    assert abs(fb.lowpass.sum() - SQRT2) <= 1e-12


def test_db5_unit_energy():
    fb = wv.DB5
    assert abs((fb.lowpass ** 2).sum() - 1.0) <= 1e-12


def test_db5_matches_published_table():
    fb = wv.DB5
    np.testing.assert_allclose(fb.lowpass, DB5_LOWPASS, rtol=0, atol=1e-10)


def test_db5_highpass_is_quadrature_mirror():
    fb = wv.DB5
    expected = fb.lowpass[::-1].copy()
    expected[1::2] *= -1.0
    np.testing.assert_allclose(fb.highpass, expected, rtol=0, atol=0)


@pytest.mark.parametrize("order", range(1, 11))
def test_daubechies_family_invariants(order):
    fb = wv.daubechies_filters(order)
    assert fb.lowpass.size == 2 * order
    assert abs(fb.lowpass.sum() - SQRT2) <= 1e-12
    assert abs((fb.lowpass ** 2).sum() - 1.0) <= 1e-12
    # orthonormality at even shifts
    h = fb.lowpass
    for m in range(1, order):
        assert abs(np.dot(h[: -2 * m], h[2 * m:])) <= 1e-12


def test_daubechies_order_out_of_range():
    with pytest.raises(ValueError):
        wv.daubechies_filters(11)


# --- single-level DWT ---

def test_dwt_constant_vector():
    approx, detail = wv.dwt_level(np.full(8, 3.0))
    np.testing.assert_allclose(approx, np.full(4, 3.0 * SQRT2), atol=1e-12)
    assert np.abs(detail).max() <= 1e-12


def test_dwt_impulse_energy_preserved():
    x = np.zeros(16)
    x[0] = 1.0
    approx, detail = wv.dwt_level(x)
    assert abs((approx ** 2).sum() + (detail ** 2).sum() - 1.0) <= 1e-12


def test_dwt_empty_input():
    with pytest.raises(EmptyInput):
        wv.dwt_level(np.array([]))


def test_idwt_length_mismatch():
    with pytest.raises(LengthMismatch):
        wv.idwt_level(np.zeros(4), np.zeros(5))


def test_idwt_constant_inverts():
    out = wv.idwt_level(np.full(4, 3.0 * SQRT2), np.zeros(4))
    np.testing.assert_allclose(out, np.full(8, 3.0), atol=1e-12)


def test_idwt_zeros_gives_zeros():
    out = wv.idwt_level(np.zeros(8), np.zeros(8))
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("n", [2, 8, 10, 33, 64, 100, 255, 1024, 4095, 4096])
def test_perfect_reconstruction_single_level(n):
    x = np.random.default_rng(n).normal(size=n)
    approx, detail = wv.dwt_level(x)
    back = wv.idwt_level(approx, detail)
    assert np.abs(back[:n] - x).max() <= 1e-10


@pytest.mark.parametrize("levels", [1, 2, 3, 5])
def test_perfect_reconstruction_multilevel(levels):
    rng = np.random.default_rng(levels)
    for n in (64, 100, 1000, 4096):
        x = rng.normal(size=n)
        coeffs = wv.dwt(x, levels)
        assert coeffs.levels == levels
        np.testing.assert_allclose(wv.idwt(coeffs), x, rtol=0, atol=1e-10)


def test_dwt_coefficient_lengths():
    coeffs = wv.dwt(np.random.default_rng(0).normal(size=100), 3)
    assert [d.size for d in coeffs.details] == [50, 25, 13]
    assert coeffs.approximation.size == 13


def test_dwt_too_short():
    with pytest.raises(SignalTooShort):
        wv.dwt(np.ones(4), 3)


# --- wavelet packets ---

def test_wpd_snapshot_shape():
    bands = wv.wpd(np.random.default_rng(1).normal(size=2560), 3)
    assert bands.shape == (8, 320) and bands.dtype == np.float64
    assert len(bands) == 8
    assert all(b.size == 320 for b in bands)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_wpd_energy_conservation(level):
    x = np.random.default_rng(level).normal(size=4096)
    bands = wv.wpd(x, level)
    rel = abs((bands ** 2).sum() - (x ** 2).sum()) / (x ** 2).sum()
    assert rel <= 1e-8


def test_wpd_constant_only_first_subband():
    bands = wv.wpd(np.full(64, 2.0), 3)
    assert np.abs(bands[0]).min() > 0
    for band in bands[1:]:
        assert np.abs(band).max() <= 1e-10


def test_wpd_coefficient_count_matches_input():
    x = np.random.default_rng(2).normal(size=2560)
    bands = wv.wpd(x, 3)
    assert sum(b.size for b in bands) == x.size


def test_wpd_too_short():
    with pytest.raises(SignalTooShort):
        wv.wpd(np.ones(4), 3)


def test_sequency_view_orders_tones_by_frequency():
    # pure tones of increasing frequency should concentrate energy in
    # increasing sequency-position subbands; the i-th lowest-frequency
    # subband sits at natural (filter-path) index i ^ (i >> 1), a Gray code
    n = 4096
    t = np.arange(n)
    gray = [i ^ (i >> 1) for i in range(8)]
    peaks = []
    for cycles_per_sample in (0.03, 0.15, 0.28, 0.42):
        bands = wv.wpd(np.sin(2 * np.pi * cycles_per_sample * t), 3)
        energies = [(bands[i] ** 2).sum() for i in gray]
        peaks.append(int(np.argmax(energies)))
    assert peaks == sorted(peaks)
    assert peaks[0] < peaks[-1]


# --- thresholding ---

def test_universal_threshold_formula():
    detail = np.array([0.6745, -0.6745, 0.6745])
    t = wv.universal_threshold(detail, 1024)
    np.testing.assert_allclose(t, np.sqrt(2.0 * np.log(1024)), rtol=1e-12)
    assert abs(t - 3.7233) < 1e-4


def test_universal_threshold_zero_detail():
    assert wv.universal_threshold(np.zeros(16), 100) == 0.0


def test_universal_threshold_scales_linearly():
    rng = np.random.default_rng(4)
    detail = rng.normal(size=101)
    t1 = wv.universal_threshold(detail, 500)
    t2 = wv.universal_threshold(3.0 * detail, 500)
    np.testing.assert_allclose(t2, 3.0 * t1, rtol=1e-12)


def test_universal_threshold_empty():
    with pytest.raises(EmptyInput):
        wv.universal_threshold(np.array([]), 100)


def test_soft_threshold_values():
    out = wv.soft_threshold(np.array([5.0, -2.0, 0.5]), 3.0)
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0], atol=0)


def test_soft_threshold_zero_is_identity():
    x = np.random.default_rng(5).normal(size=50)
    np.testing.assert_allclose(wv.soft_threshold(x, 0.0), x, atol=0)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=64) * rng.uniform(0.1, 10)
        t = rng.uniform(0, 3)
        assert np.all(np.abs(wv.soft_threshold(x, t)) <= np.abs(x) + 1e-15)


def test_soft_threshold_negative_threshold():
    with pytest.raises(NegativeThreshold):
        wv.soft_threshold(np.ones(3), -0.1)


# --- denoising ---

def test_denoise_constant_unchanged():
    x = np.full(64, 5.0)
    np.testing.assert_allclose(wv.wavelet_denoise(x), x, atol=1e-10)


def test_denoise_reduces_noise_variance():
    x = np.random.default_rng(7).normal(size=2048)
    out = wv.wavelet_denoise(x)
    assert out.var() < x.var()


def test_denoise_improves_sinusoid_correlation():
    rng = np.random.default_rng(8)
    t = np.arange(2048)
    clean = np.sin(2 * np.pi * t / 128.0)
    noisy = clean + 0.3 * rng.normal(size=t.size)
    out = wv.wavelet_denoise(noisy)
    corr_before = np.corrcoef(noisy, clean)[0, 1]
    corr_after = np.corrcoef(out, clean)[0, 1]
    assert corr_after > corr_before


@pytest.mark.parametrize("n", [65, 100, 257])
def test_denoise_preserves_length(n):
    x = np.random.default_rng(n).normal(size=n)
    assert wv.wavelet_denoise(x).size == n


# --- Savitzky-Golay ---

def savgol_weights_oracle(window, order):
    # independent least-squares solve of the polynomial fit at the center
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offsets, order + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design.T @ design, design.T, rcond=None)
    return coeffs[0]


def test_savgol_kernel_matches_known_values():
    k = wv.savgol_kernel(5, 2)
    np.testing.assert_allclose(
        k.weights, np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0, atol=1e-12)


@pytest.mark.parametrize("window,order", [(5, 2), (7, 2), (9, 4), (11, 3)])
def test_savgol_kernel_matches_lstsq_oracle(window, order):
    k = wv.savgol_kernel(window, order)
    np.testing.assert_allclose(k.weights, savgol_weights_oracle(window, order),
                               atol=1e-12)


def test_savgol_kernel_sums_to_one():
    for window, order in ((5, 2), (9, 3)):
        assert abs(wv.savgol_kernel(window, order).weights.sum() - 1.0) <= 1e-12


def test_savgol_kernel_bad_args():
    with pytest.raises(InvalidWindow):
        wv.savgol_kernel(4, 2)
    with pytest.raises(OrderTooHigh):
        wv.savgol_kernel(5, 5)


def test_savgol_filter_constant():
    out = wv.savgol_filter(np.full(5, 4.0))
    np.testing.assert_allclose(out, np.full(5, 4.0), atol=1e-12)


def test_savgol_filter_line_interior():
    x = np.arange(10, dtype=float)
    out = wv.savgol_filter(x)
    np.testing.assert_allclose(out[2:-2], x[2:-2], atol=1e-10)


def test_savgol_filter_polynomial_reproduction():
    # degree <= poly_order polynomials pass through untouched (interior)
    rng = np.random.default_rng(10)
    i = np.arange(30, dtype=float)
    for _ in range(10):
        a, b, c = rng.normal(size=3)
        x = a + b * i + c * i ** 2
        out = wv.savgol_filter(x)
        np.testing.assert_allclose(out[2:-2], x[2:-2], rtol=0, atol=1e-8)


def test_savgol_filter_spike_attenuation():
    x = np.ones(11)
    x[5] += 1.0
    out = wv.savgol_filter(x)
    np.testing.assert_allclose(out[5] - 1.0, 17.0 / 35.0, atol=1e-12)


def test_savgol_filter_too_short():
    with pytest.raises(SignalTooShort):
        wv.savgol_filter(np.ones(3))


# --- kurtosis ---

def test_kurtosis_alternating_sequence():
    x = np.tile([1.0, -1.0], 50)
    assert wv.kurtosis(x) == pytest.approx(1.0, abs=1e-12)


def test_kurtosis_constant_raises():
    with pytest.raises(ZeroVariance):
        wv.kurtosis(np.full(4, 5.0))


def test_kurtosis_too_short():
    with pytest.raises(TooShort):
        wv.kurtosis(np.array([1.0, 2.0, 3.0]))


def test_kurtosis_gaussian_monte_carlo():
    x = np.random.default_rng(11).standard_normal(10 ** 6)
    assert wv.kurtosis(x) == pytest.approx(3.0, abs=0.05)


def test_kurtosis_affine_invariance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.normal(size=500)
        a = rng.uniform(0.1, 10) * rng.choice([-1, 1])
        b = rng.uniform(-5, 5)
        assert wv.kurtosis(a * x + b) == pytest.approx(wv.kurtosis(x), abs=1e-9)
