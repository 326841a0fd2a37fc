"""Signal-processing front end: framing, spectra, MFCC/chroma/spectral
scalars, the 37-dim averaged feature vector, and log-Mel spectrograms.

All functions are pure and deterministic. A clip is a 1-D float64 array of
samples in [-1, 1] at SAMPLE_RATE: `load_audio` resamples every file to it,
so a file's own rate exists only between `read_wav` and `resample`.
"""

from __future__ import annotations

import wave
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError

SAMPLE_RATE = 16000
MIN_SAMPLE_RATE = 8000  # lowest WAV rate read; no corpus named in README is below it
N_FFT = 512
FRAME_MS = 20.0
HOP_MS = 10.0
N_MELS = 40
N_MFCC = 20
N_CHROMA = 12
PRE_EMPHASIS = 0.97
ROLLOFF_PCT = 0.85
CHROMA_FMIN_HZ = 100.0
CHROMA_WIN_MS = 128.0  # pitch-class resolution needs a longer window
CHROMA_N_FFT = 2048

MEL_SPEC_BANDS = 128
MEL_SPEC_HOP_MS = 100.0
MEL_SPEC_WIN_MS = 25.0
LOG_FLOOR = 1e-10
TRIM_DB = -60.0  # trim_silence drops samples this far below the peak
STFT_BLOCK = 32768  # samples (frames x n_fft) per FFT call; bounds the STFT's temporaries

FEATURE_NAMES = (
    [f"mfcc{i}" for i in range(1, N_MFCC + 1)]
    + [f"chroma{i}" for i in range(1, N_CHROMA + 1)]
    + ["spectral_centroid", "spectral_bandwidth", "spectral_rolloff", "zcr", "rms"]
)
N_FEATURES = len(FEATURE_NAMES)  # 37


# ---------------------------------------------------------------------------
# Audio I/O

def read_wav(path):
    """Read a 16-bit PCM WAV file as (samples, sample rate); stereo is
    downmixed by channel averaging. An unreadable, non-PCM or sample-less
    file, or one below MIN_SAMPLE_RATE, is an InputError naming the path."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_ch = wf.getnchannels()
            width = wf.getsampwidth()
            sr = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (EOFError, wave.Error) as exc:
        raise InputError(f"{path}: not a 16-bit PCM WAV file "
                         f"({str(exc) or 'truncated header'})") from None
    if width != 2:
        raise InputError(f"{path}: only 16-bit PCM WAV is supported")
    # a truncated data chunk can end inside a frame: read whole frames only
    count = len(raw) // (2 * n_ch) * n_ch
    data = np.frombuffer(raw, dtype="<i2", count=count).astype(np.float64) / 32768.0
    if n_ch > 1:
        data = data.reshape(-1, n_ch).mean(axis=1)
    if data.size == 0:
        raise InputError(f"{path}: audio must be a non-empty 1-D sample array")
    # near 0 Hz, `resample` would allocate gigabytes
    if sr < MIN_SAMPLE_RATE:
        raise InputError(f"{path}: sample rate {sr} Hz is below {MIN_SAMPLE_RATE} Hz")
    return data, sr


def write_wav(path, x: np.ndarray) -> None:
    """Write a clip as mono 16-bit PCM WAV at SAMPLE_RATE."""
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def resample(samples: np.ndarray, rate: int) -> np.ndarray:
    """Linear-interpolation resampling from `rate` Hz to SAMPLE_RATE."""
    if rate == SAMPLE_RATE:
        return samples
    n_out = max(1, int(round(samples.size * SAMPLE_RATE / rate)))
    t_out = np.arange(n_out) * (rate / SAMPLE_RATE)
    return np.interp(t_out, np.arange(samples.size), samples)


def load_audio(path) -> np.ndarray:
    """Read a WAV as a clip: mono at SAMPLE_RATE."""
    return resample(*read_wav(path))


# ---------------------------------------------------------------------------
# Framing and spectra

def frames_at(x: np.ndarray, starts, frame_len: int) -> np.ndarray:
    """Frames of `frame_len` samples beginning at each of `starts`; samples
    past the end of `x` read as zeros. Returns (len(starts), frame_len): a
    read-only strided view when the starts are evenly spaced at most
    `frame_len` apart, else a copy. (A view keeps the whole zero-padded clip
    alive, which for frames with gaps between them, as the log-Mel's 25 ms
    frames at a 100 ms hop, is more than they read.)"""
    starts = np.asarray(starts)
    padded = np.zeros(max(x.size, int(starts[-1]) + frame_len))
    padded[: x.size] = x
    windows = sliding_window_view(padded, frame_len)
    step = starts[1] - starts[0] if starts.size > 1 else 1
    if 0 < step <= frame_len and np.all(np.diff(starts) == step):
        return windows[starts[0]: starts[-1] + 1: step]
    return windows[starts]


def frame_length(frame_ms: float) -> int:
    """Samples in a frame of `frame_ms` milliseconds."""
    return int(round(frame_ms * SAMPLE_RATE / 1000.0))


def samples_for_frames(n_frames: int, hop_ms: float) -> int:
    """Fewest samples from which `frame` cuts `n_frames` frames: frame
    n_frames - 1 must start inside the clip."""
    return int(np.floor((n_frames - 1) * hop_ms * SAMPLE_RATE / 1000.0)) + 1


def frame(x: np.ndarray, frame_ms: float, hop_ms: float) -> np.ndarray:
    """Slice a clip into (n_frames, frame_len) frames, one every
    frame_length(hop_ms) samples (160 at the 10 ms hop, 1600 at 100 ms) for
    every start inside the clip.

    The trailing partial frames are zero-padded to the full frame length.
    """
    if frame_ms <= 0 or hop_ms <= 0:
        raise InputError("frame_ms and hop_ms must be positive")
    starts = np.arange(0, x.size, frame_length(hop_ms))
    return frames_at(x, starts, frame_length(frame_ms))


def power_spectrum(frame_samples: np.ndarray, n_fft: int) -> np.ndarray:
    """|DFT|^2 of each frame, zero-padded to n_fft, over the last axis of a
    (..., L) array; one-sided (n_fft//2+1 bins). The caller windows the
    frames."""
    x = np.asarray(frame_samples, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty frame")
    if x.shape[-1] > n_fft:
        raise InputError(f"frame length {x.shape[-1]} exceeds n_fft {n_fft}")
    spec = np.fft.rfft(x, n=n_fft)
    return np.abs(spec) ** 2


def _frame_power(x: np.ndarray, frame_ms, hop_ms, n_fft, pre_emphasis: float | None = None):
    """Shared helper: (frames, power matrix) for the analysis grid.

    The power matrix is filled STFT_BLOCK // n_fft frames at a time, so the
    windowed frames and their complex spectrum exist for one block only. A
    row depends on its own frame alone, so the matrix is bit for bit the one
    a single FFT over all frames gives."""
    if pre_emphasis:
        x = np.append(x[0], x[1:] - pre_emphasis * x[:-1])
    frames = frame(x, frame_ms, hop_ms)
    win = np.hanning(frames.shape[1])
    power = np.empty((len(frames), n_fft // 2 + 1))
    step = max(1, STFT_BLOCK // n_fft)
    for i in range(0, len(frames), step):
        block = frames[i: i + step] * win
        power[i: i + step] = power_spectrum(block, n_fft)
    return frames, power


# ---------------------------------------------------------------------------
# Mel filterbank / MFCC

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, n_fft: int):
    """Triangular HTK-style Mel filters from 0 Hz to Nyquist: a read-only
    (n_mels, n_fft//2+1) array, shared between calls with equal arguments."""
    mel_pts = np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / SAMPLE_RATE)
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


@lru_cache(maxsize=None)
def _dct_matrix(n: int, n_keep: int) -> np.ndarray:
    """Read-only (n, n_keep) matrix whose column k is the k-th orthonormal
    DCT-II basis vector of length n, so `x @ _dct_matrix(n, n_keep)` gives
    the first n_keep coefficients of each row of x."""
    k = np.arange(n_keep)
    basis = np.cos(np.pi * k * (2 * np.arange(n)[:, None] + 1) / (2 * n))
    basis *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    basis.setflags(write=False)
    return basis


def mfcc(x: np.ndarray) -> np.ndarray:
    """Per-frame MFCCs: pre-emphasis -> frame -> Hann -> FFT power -> Mel ->
    log -> orthonormal DCT-II. Returns (n_frames, N_MFCC)."""
    if x.size < frame_length(FRAME_MS):
        raise InputError("audio shorter than one frame")
    _, power = _frame_power(x, FRAME_MS, HOP_MS, N_FFT, PRE_EMPHASIS)
    mel_energy = power @ mel_filterbank(N_MELS, N_FFT).T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return log_mel @ _dct_matrix(N_MELS, N_MFCC)


# ---------------------------------------------------------------------------
# Spectral scalars and chroma

def spectral_scalars(x: np.ndarray) -> np.ndarray:
    """Per-frame (centroid, bandwidth, rolloff, zcr, rms); shape (n_frames, 5).

    Silent frames get centroid = bandwidth = rolloff = 0 so averages stay finite.
    """
    frames, power = _frame_power(x, FRAME_MS, HOP_MS, N_FFT)
    freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    mag = np.sqrt(power)
    mag_sum = mag.sum(axis=1)
    live = mag_sum > 0

    centroid = np.zeros(len(mag))
    bandwidth = np.zeros(len(mag))
    rolloff = np.zeros(len(mag))
    if live.any():
        if live.all():
            live = slice(None)  # views instead of fancy-index copies
        centroid[live] = (mag[live] * freqs).sum(axis=1) / mag_sum[live]
        dev = (freqs[None, :] - centroid[live, None]) ** 2
        bandwidth[live] = np.sqrt((dev * mag[live]).sum(axis=1) / mag_sum[live])
        cum = np.cumsum(power[live], axis=1)
        target = ROLLOFF_PCT * cum[:, -1:]
        idx = np.argmax(cum >= target, axis=1)
        rolloff[live] = freqs[idx]

    signs = np.sign(frames)
    flips = (signs[:, 1:] * signs[:, :-1]) < 0
    zcr = flips.sum(axis=1) / (frames.shape[1] - 1)
    rms = np.sqrt((frames ** 2).mean(axis=1))
    return np.column_stack([centroid, bandwidth, rolloff, zcr, rms])


@lru_cache(maxsize=None)
def _chroma_fold(n_fft: int, fmin: float) -> np.ndarray:
    """Read-only (n_fft//2+1, 12) 0/1 matrix sending each bin at or above
    fmin to its pitch class (A440 reference, A -> class 9)."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / SAMPLE_RATE)
    usable = np.flatnonzero(freqs >= fmin)
    classes = (np.round(12.0 * np.log2(freqs[usable] / 440.0)).astype(int) + 9) % 12
    fold = np.zeros((freqs.size, N_CHROMA))
    fold[usable, classes] = 1.0
    fold.setflags(write=False)
    return fold


def chroma(x: np.ndarray) -> np.ndarray:
    """Per-frame 12-bin pitch-class profile (A440 reference, A -> class 9).

    Bin energies above the low-frequency cutoff are folded onto pitch
    classes; each frame is L2-normalized when nonzero. The analysis window
    is longer than the 20 ms grid because pitch-class resolution near 440 Hz
    needs better than 26 Hz frequency resolution; the hop matches the other
    per-frame features.
    """
    _, power = _frame_power(x, CHROMA_WIN_MS, HOP_MS, CHROMA_N_FFT)
    out = power @ _chroma_fold(CHROMA_N_FFT, CHROMA_FMIN_HZ)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    nz = norms[:, 0] > 0
    out[nz] /= norms[nz]
    return out


# ---------------------------------------------------------------------------
# Aggregate features and Mel spectrogram

def trim_silence(x: np.ndarray) -> np.ndarray:
    """Strip leading/trailing samples below TRIM_DB relative to peak.
    All-silent input is returned unchanged."""
    peak = np.abs(x).max()
    if peak == 0:
        return x
    live = np.where(np.abs(x) > peak * 10.0 ** (TRIM_DB / 20.0))[0]
    if live.size == 0:
        return x
    return x[live[0]: live[-1] + 1]


def extract_features(x: np.ndarray, trim: bool = False) -> np.ndarray:
    """Frame-averaged 37-dim feature vector in FEATURE_NAMES order."""
    if trim:
        x = trim_silence(x)
    m = mfcc(x).mean(axis=0)
    c = chroma(x).mean(axis=0)
    s = spectral_scalars(x).mean(axis=0)
    return np.concatenate([m, c, s])


def mel_spectrogram(x: np.ndarray) -> np.ndarray:
    """Log-Mel time-frequency matrix, a column-major float64
    (MEL_SPEC_BANDS, T) array at the MEL_SPEC_HOP_MS hop: a t-second clip
    yields T = ceil(10 t) columns."""
    _, power = _frame_power(x, MEL_SPEC_WIN_MS, MEL_SPEC_HOP_MS, N_FFT)
    mel_energy = power @ mel_filterbank(MEL_SPEC_BANDS, N_FFT).T
    return np.log(np.maximum(mel_energy, LOG_FLOOR)).T
