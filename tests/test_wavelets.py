import numpy as np
import pytest

from bearingrul import wavelets as wv
from dwt_cascade import dwt, idwt
import signal_oracle
from bearingrul.errors import (
    EmptyInput,
    FloatOverflow,
    LengthMismatch,
    NegativeThreshold,
    SignalTooShort,
    TooShort,
    ZeroVariance,
)

SQRT2 = np.sqrt(2.0)

# published db5 decomposition lowpass (independent of the literal in wavelets)
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


def test_db5_even_shift_orthonormal():
    h = wv.DB5.lowpass
    assert h.size == 10
    for m in range(1, 5):
        assert abs(np.dot(h[: -2 * m], h[2 * m:])) <= 1e-12


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


def idwt_level_per_tap(approx, detail):
    # the scatter idwt_level replaced: one np.add.at per filter tap
    n = 2 * approx.size
    x = np.zeros(n)
    for k in range(wv.DB5.lowpass.size):
        pos = (2 * np.arange(approx.size) + k) % n
        np.add.at(x, pos, approx * wv.DB5.lowpass[k] + detail * wv.DB5.highpass[k])
    return x


@pytest.mark.parametrize("n", [2, 4, 6, 10, 66, 2560])
def test_idwt_matches_per_tap_scatter(n):
    rng = np.random.default_rng(n)
    approx, detail = rng.normal(size=(2, n // 2))
    assert np.array_equal(wv.idwt_level(approx, detail),
                          idwt_level_per_tap(approx, detail))


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
        np.testing.assert_allclose(idwt(*dwt(x, levels)), x, rtol=0, atol=1e-10)


def test_dwt_coefficient_lengths():
    approx, details, _ = dwt(np.random.default_rng(0).normal(size=100), 3)
    assert [d.size for d in details] == [50, 25, 13]
    assert approx.size == 13


def test_dwt_too_short():
    with pytest.raises(SignalTooShort):
        wv.dwt_level(np.ones(1))
    with pytest.raises(SignalTooShort):
        wv.wavelet_denoise(np.ones(3))


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


@pytest.mark.parametrize("n", [4, 5, 65, 100, 257, 2560])
def test_denoise_matches_two_level_cascade(n):
    x = np.random.default_rng(n).normal(size=n)
    approx, details, lengths = dwt(x, 2)
    t = np.median(np.abs(details[0])) / 0.6745 * np.sqrt(2.0 * np.log(n))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - t, 0.0) for d in details]
    assert np.array_equal(wv.wavelet_denoise(x), idwt(approx, shrunk, lengths))


# --- Savitzky-Golay ---

def savgol_weights_oracle(window, order):
    # independent least-squares solve of the polynomial fit at the center
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offsets, order + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design.T @ design, design.T, rcond=None)
    return coeffs[0]


def test_savgol_kernel_matches_known_values():
    np.testing.assert_allclose(
        wv.SAVGOL, np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0, atol=1e-12)


def test_savgol_kernel_matches_lstsq_oracle():
    np.testing.assert_allclose(wv.SAVGOL, savgol_weights_oracle(5, 2), atol=1e-12)


def test_savgol_kernel_sums_to_one():
    assert abs(wv.SAVGOL.sum() - 1.0) <= 1e-12


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


@pytest.mark.parametrize("x", [[1e300, -1e300, 0.0, 0.0], [1e100, 0.0, 0.0, 0.0],
                               [1.7e308] * 8 + [-1.7e308] * 8,
                               [1e-160, -1e-160, 0.0, 0.0]])
def test_kurtosis_out_of_float_range_raises_without_a_warning(x):
    # finite samples whose moments overflow, or whose m2^2 underflows to 0
    with pytest.raises(FloatOverflow):
        wv.kurtosis(np.array(x))


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


# --- the direct kernels against numpy's generic forms, bit for bit ---

ORACLE_LENGTHS = [*range(4, 81), 256, 2560, 2561]

# ±0.0, subnormals and ±1e300; one NaN with the default payload, one
# negative and one with a payload of its own.
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 1e300, -1e300])
NANS = (np.nan, -np.nan, np.array([0x7FF8000000000123], np.uint64).view(np.float64)[0])


def oracle_signals(n, rng):
    """(name, signal) pairs of length n: Gaussian, Gaussian with special
    values at random positions, quantized (ties for the median), and
    Gaussian holding one NaN."""
    plain = rng.standard_normal(n)
    special = plain.copy()
    picks = rng.permutation(SPECIALS)[:n]
    special[rng.choice(n, size=picks.size, replace=False)] = picks
    nan = plain.copy()
    nan[rng.integers(n)] = NANS[n % len(NANS)]
    return (("plain", plain), ("special", special),
            ("ties", np.round(plain * 2.0)), ("nan", nan))


def outcome(fn, *args):
    """fn's result as bytes (so NaN payloads and -0.0 count), or the
    exception type it raised."""
    try:
        return np.asarray(fn(*args), dtype=np.float64).tobytes()
    except (ZeroVariance, FloatOverflow) as exc:
        return type(exc)


def test_denoise_kernels_match_the_generic_forms_bit_for_bit():
    rng = np.random.default_rng(1601)
    for n in ORACLE_LENGTHS:
        for name, x in oracle_signals(n, rng):
            label = f"{name} n={n}"
            # 1e300 overflows kurtosis's fourth power: where the generic
            # form then gives inf or nan from finite samples, kurtosis raises.
            with np.errstate(over="ignore", invalid="ignore"):
                want = outcome(signal_oracle.kurtosis, x)
            if (isinstance(want, bytes) and not np.isfinite(np.frombuffer(want)[0])
                    and np.isfinite(x).all()):
                want = FloatOverflow
            assert outcome(wv.kurtosis, x) == want, label
            if n >= wv.SAVGOL.size:
                assert (outcome(wv.savgol_filter, x)
                        == outcome(signal_oracle.savgol_filter, x)), label
            assert (outcome(wv.universal_threshold, x, n)
                    == outcome(signal_oracle.universal_threshold, x, n)), label
            assert (outcome(wv.wavelet_denoise, x)
                    == outcome(signal_oracle.wavelet_denoise, x)), label
            detail = rng.permutation(x)
            assert (outcome(wv.idwt_level, x, detail)
                    == outcome(signal_oracle.idwt_level, x, detail)), label


def test_a_nan_makes_the_threshold_nan_without_a_warning():
    # filterwarnings = error turns any warning here into a failure.
    x = np.random.default_rng(1602).standard_normal(256)
    for i, nan in enumerate(NANS):
        x[3 + i] = nan
        assert np.isnan(wv.universal_threshold(x, x.size))
        assert np.isnan(wv.wavelet_denoise(x)).all()
        assert np.isnan(wv.kurtosis(x))
        x[3 + i] = 0.0
