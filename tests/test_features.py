import hashlib

import numpy as np
import pytest

from bearingrul import dataio, features as ft, wavelets as wv
from bearingrul.errors import (
    BaselineTooShort,
    FptOutOfRange,
    InvalidRecord,
    NoPostFptWindows,
    RecordTooShort,
    ZeroVariance,
)


def make_record(hor, ver=None):
    hor = np.asarray(hor, float)
    if ver is None:
        ver = hor + 0.25
    return ft.BearingRecord(np.stack([hor, ver]), bearing_id="test")


def gaussian_record(n_snapshots, samples, seed=0):
    rng = np.random.default_rng(seed)
    return ft.BearingRecord(rng.normal(size=(2, n_snapshots, samples)))


def test_condition_id_comes_from_the_bearing_id():
    record = make_record(np.zeros((1, 16)))
    for bearing_id, condition in (("Bearing9_1", 9), ("Bearing12_3", 12),
                                  ("test", 0), ("Bearing9", 0)):
        record.bearing_id = bearing_id
        assert record.condition_id == condition
    with pytest.raises(AttributeError):
        record.condition_id = 2


@pytest.mark.parametrize("shape", [(16,), (1, 16), (3, 1, 16), (2, 0, 16)])
def test_record_needs_two_channels_of_snapshots(shape):
    with pytest.raises(InvalidRecord, match=r"not \(2, n >= 1, m\)"):
        ft.BearingRecord(np.zeros(shape))


# --- sliding windows ---

def test_window_count_100():
    windows = ft.sliding_windows(100, size=10, stride=5)
    assert len(windows) == 19
    assert windows[0].start == 0 and windows[-1].start == 90


def test_window_count_exact_fit():
    assert len(ft.sliding_windows(10, size=10, stride=5)) == 1


def test_window_overlap_is_half():
    w = ft.sliding_windows(100, size=10, stride=5)
    shared = set(w[0].indices) & set(w[1].indices)
    assert len(shared) == 5


def test_windows_trailing_remainder_dropped():
    windows = ft.sliding_windows(23, size=10, stride=5)
    assert [w.start for w in windows] == [0, 5, 10]


def test_windows_record_too_short():
    with pytest.raises(RecordTooShort):
        ft.sliding_windows(5, size=10)


# --- kurtosis series ---

def test_kurtosis_series_square_wave():
    snap = np.tile([1.0, -1.0], 64)
    record = make_record(np.tile(snap, (6, 1)))
    np.testing.assert_allclose(ft.kurtosis_series(record), np.ones(6), atol=1e-12)


def test_kurtosis_series_gaussian_near_three():
    record = gaussian_record(20, 4096, seed=1)
    series = ft.kurtosis_series(record)
    assert series.shape == (20,)
    assert np.all(np.abs(series - 3.0) < 0.5)


def test_kurtosis_series_reports_snapshot_index():
    data = np.random.default_rng(2).normal(size=(4, 64))
    data[2] = 7.0
    with pytest.raises(ZeroVariance, match="snapshot 2"):
        ft.kurtosis_series(make_record(data))


def test_kurtosis_series_channel_selection():
    rng = np.random.default_rng(3)
    hor = rng.normal(size=(5, 256))
    ver = np.tile(np.tile([1.0, -1.0], 128), (5, 1))
    record = ft.BearingRecord(np.stack([hor, ver]))
    np.testing.assert_allclose(ft.kurtosis_series(record, "vertical"),
                               np.ones(5), atol=1e-12)


# --- FPT detection ---

def brute_force_fpt(k, baseline, mult=3.0, consec=3):
    mu = k[:baseline].mean()
    sd = k[:baseline].std(ddof=1)
    for i in range(baseline, len(k) - consec + 1):
        if all(abs(k[i + j] - mu) > mult * sd for j in range(consec)):
            return i
    return None


def test_detect_fpt_step_series():
    rng = np.random.default_rng(4)
    k = np.concatenate([3.0 + 0.1 * rng.standard_normal(50),
                        6.0 + 0.1 * rng.standard_normal(50)])
    cfg = ft.FptConfig(baseline_count=40)
    assert ft.detect_fpt(k, cfg) == 50
    assert brute_force_fpt(k, 40) == 50


def test_detect_fpt_matches_bruteforce_on_random_series():
    rng = np.random.default_rng(5)
    for trial in range(100):
        baseline = int(rng.integers(5, 30))
        n = int(rng.integers(baseline + 5, 120))
        k = 3.0 + 0.2 * rng.standard_normal(n)
        # randomly inject an excursion
        if rng.random() < 0.7:
            start = int(rng.integers(baseline, n))
            length = int(rng.integers(1, 6))
            k[start:start + length] += rng.uniform(1.0, 5.0)
        cfg = ft.FptConfig(baseline_count=baseline)
        assert ft.detect_fpt(k, cfg) == brute_force_fpt(k, baseline)


def test_detect_fpt_all_inside_band():
    rng = np.random.default_rng(6)
    k = 3.0 + 0.1 * rng.standard_normal(80)
    assert ft.detect_fpt(k, ft.FptConfig(baseline_count=40)) is None


def test_detect_fpt_two_exceedances_not_enough():
    k = np.full(60, 3.0)
    k[:40] += 0.01 * np.random.default_rng(7).standard_normal(40)
    k[50:52] = 10.0
    assert ft.detect_fpt(k, ft.FptConfig(baseline_count=40)) is None


def test_detect_fpt_baseline_too_short():
    with pytest.raises(BaselineTooShort):
        ft.detect_fpt(np.ones(10), ft.FptConfig(baseline_count=10))


def test_detect_fpt_default_baseline_resolution():
    assert ft.FptConfig().resolve_baseline(400) == 40
    assert ft.FptConfig().resolve_baseline(100) == 20
    assert ft.FptConfig().resolve_baseline(10) == 4


def test_detect_fpt_record_either_channel():
    rng = np.random.default_rng(8)
    hor = rng.normal(size=(60, 512))
    ver = rng.normal(size=(60, 512))
    ver[30:] *= 1.0
    ver[30:, ::16] += 12.0   # fault only on the vertical channel
    record = ft.BearingRecord(np.stack([hor, ver]))
    cfg = ft.FptConfig(baseline_count=12, channel_policy="either")
    fpt, channel, series = ft.detect_fpt_record(record, cfg)
    assert fpt is not None and 28 <= fpt <= 33
    assert channel == "vertical"
    assert np.array_equal(series, ft.kurtosis_series(record, "vertical"))
    hcfg = ft.FptConfig(baseline_count=12, channel_policy="horizontal")
    fpt, channel, series = ft.detect_fpt_record(record, hcfg)
    assert (fpt, channel) == (None, "horizontal")
    assert np.array_equal(series, ft.kurtosis_series(record, "horizontal"))


# --- labeling ---

def test_labels_endpoints():
    labels = ft.assign_labels(100, 50)
    assert labels[50] == 1.0
    assert labels[99] == 0.0
    assert np.all(labels[:51] == 1.0)


def test_labels_midpoint_value():
    labels = ft.assign_labels(100, 50)
    assert labels[74] == pytest.approx(1.0 - 24.0 / 49.0, abs=1e-12)


def test_labels_fpt_next_to_last():
    labels = ft.assign_labels(10, 8)
    np.testing.assert_allclose(labels, [1.0] * 9 + [0.0], atol=0)


def test_labels_fpt_out_of_range():
    with pytest.raises(FptOutOfRange):
        ft.assign_labels(100, 99)
    with pytest.raises(FptOutOfRange):
        ft.assign_labels(100, -1)


def test_labels_property_batch():
    # 1000 random configurations: start at 1, end at 0, non-increasing,
    # piecewise linear with a single breakpoint at the onset index
    rng = np.random.default_rng(9)
    for _ in range(1000):
        length = int(rng.integers(3, 400))
        fpt = int(rng.integers(0, length - 1))
        labels = ft.assign_labels(length, fpt)
        assert labels[0] == 1.0 and labels[-1] == 0.0
        assert np.all(np.diff(labels) <= 1e-15)
        assert np.all(labels[:fpt + 1] == 1.0)
        decay = labels[fpt:]
        if decay.size > 2:
            second_diff = np.diff(decay, n=2)
            assert np.abs(second_diff).max() <= 1e-12


# --- WPD images ---

def test_wpd_image_zero_input_all_zero():
    img = ft.wpd_image(np.zeros(4096))
    assert img.dtype == np.float32 and np.all(img == 0.0)


def test_wpd_image_normalization_bounds():
    img = ft.wpd_image(np.random.default_rng(10).normal(size=4096))
    assert img.min() == 0.0
    assert img.max() == 1.0


def test_wpd_image_pixel_count():
    for n in (4096, 25600, 2560):
        img = ft.wpd_image(np.random.default_rng(n).normal(size=n))
        assert img.shape == (64, 64)


def test_wpd_image_normalize_idempotent():
    raw = np.random.default_rng(11).random((64, 64)).astype(np.float64)
    once = ft.normalize_image(raw)
    np.testing.assert_allclose(ft.normalize_image(once), once, atol=0)


def test_wpd_image_row_block_layout():
    x = np.random.default_rng(12).normal(size=4096)
    img = ft.wpd_image(x)
    bands = wv.wpd(x, 3)
    raw = np.empty((64, 64))
    for b, band in enumerate(bands):
        raw[8 * b:8 * (b + 1), :] = band.reshape(8, 64)  # 512 points per band
    expected = (raw - raw.min()) / (raw.max() - raw.min())
    np.testing.assert_allclose(img, expected.astype(np.float32), atol=1e-7)


def test_wpd_image_paper_scale_band_length():
    x = np.random.default_rng(13).normal(size=25600)
    bands = wv.wpd(x, 3)
    assert all(b.size == 3200 for b in bands)
    img = ft.wpd_image(x)
    assert img.shape == (64, 64)


# --- dataset assembly ---

def test_build_dataset_window_filtering():
    record = gaussian_record(100, 64, seed=14)
    samples = ft.build_dataset(record, fpt=50, size=10, stride=5, denoise=False)
    assert len(samples) == 10
    starts = [s.hor.source_window.start for s in samples]
    assert starts == list(range(45, 95, 5))


def test_build_dataset_fpt_zero_keeps_all_windows():
    record = gaussian_record(100, 64, seed=15)
    samples = ft.build_dataset(record, fpt=0, size=10, stride=5, denoise=False)
    assert len(samples) == 19


def test_build_dataset_labels_non_increasing():
    record = gaussian_record(100, 64, seed=16)
    samples = ft.build_dataset(record, fpt=30, size=10, stride=5, denoise=False)
    labels = [s.label for s in samples]
    assert all(a >= b for a, b in zip(labels, labels[1:]))


def test_build_dataset_label_matches_window_last():
    record = gaussian_record(60, 64, seed=17)
    samples = ft.build_dataset(record, fpt=20, size=10, stride=5, denoise=False)
    labels = ft.assign_labels(60, 20)
    for s in samples:
        assert s.label == pytest.approx(labels[s.hor.source_window.last],
                                        abs=1e-6)


def test_build_dataset_no_post_fpt_windows():
    record = gaussian_record(23, 64, seed=18)
    with pytest.raises(NoPostFptWindows):
        ft.build_dataset(record, fpt=21, size=10, stride=5, denoise=False)


def test_build_dataset_denoised_pipeline_runs():
    record = gaussian_record(30, 128, seed=19)
    samples = ft.build_dataset(record, fpt=10, size=10, stride=5, denoise=True)
    assert len(samples) == 4
    ver = ft.preprocess_record(record).channel("vertical")
    for s in samples:
        assert s.hor.pixels.shape == (64, 64)
        w = s.ver.source_window
        signal = ver[w.start:w.start + w.size].reshape(-1)
        assert np.array_equal(s.ver.pixels, ft.wpd_image(signal))


def test_preprocess_record_smooths():
    record = gaussian_record(4, 256, seed=20)
    cleaned = ft.preprocess_record(record)
    assert cleaned.signals.shape == record.signals.shape
    assert all(cleaned.signals.var(axis=(1, 2)) < record.signals.var(axis=(1, 2)))


def test_check_samples_rejects_bad_labels_and_pixels():
    img = ft.wpd_image(np.random.default_rng(21).normal(size=4096))
    good = np.array([(img, img, 0.0), (img, img, 1.0)], dtype=ft.SAMPLE_DTYPE)
    assert ft.check_samples(good) is good
    for field, value in (("label", 1.5), ("label", -0.5), ("label", np.nan),
                         ("hor", np.inf), ("ver", np.nan)):
        bad = good.copy()
        bad[field][-1] = value
        with pytest.raises(ValueError):
            ft.check_samples(bad)


# --- golden featurization ---

# (snapshots, samples, onset, seed, fpt, window, stride, denoise) -> sha256 of
# dataset.bin. The cases cover a denoised PRONOSTIA-sized record, odd-length
# snapshots (wrap-padded at every transform level), and 16x256 windows whose
# level-3 subbands are exactly one 8-row image block long.
GOLDEN_FEATURIZE = {
    "denoised-60x2560": ((60, 2560, 30, 11, 28, 10, 5, True),
        "6ff02e4d7da7b06a934ed55e4e0587387c3116cb906ea56366b099871ae5cd82"),
    "odd-65-samples": ((30, 65, 15, 12, 14, 10, 5, True),
        "10875eac16e227c4a54194c56c88956c93c3e0cfa799a95e77262a08c539dc25"),
    "windows-16x256": ((40, 256, 20, 13, 18, 16, 8, False),
        "0ecc331693f1cbd2c08580f0ac7df5066d015f5916855c764fa3bfbc884ba085"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FEATURIZE))
def test_featurized_dataset_matches_golden_hash(case, tmp_path):
    (n, m, onset, seed, fpt, size, stride, denoise), want = GOLDEN_FEATURIZE[case]
    record = dataio.gen_synthetic(dataio.SyntheticConfig(
        n_snapshots=n, samples_per_snapshot=m, fault_onset_index=onset, seed=seed))
    samples = ft.build_dataset(record, fpt, size=size, stride=stride,
                               denoise=denoise)
    path = dataio.save_dataset(ft.sample_records(samples), tmp_path / "dataset.bin")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
