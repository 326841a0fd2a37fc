"""Signal-processing front end: framing, spectra, MFCC/chroma/spectral
scalars, the 37-dim averaged feature vector, and log-Mel spectrograms.

All functions are pure and deterministic; audio is represented as float64
samples in [-1, 1] at a known sample rate.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .errors import InputError

SAMPLE_RATE = 16000
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

FEATURE_NAMES = (
    [f"mfcc{i}" for i in range(1, N_MFCC + 1)]
    + [f"chroma{i}" for i in range(1, N_CHROMA + 1)]
    + ["spectral_centroid", "spectral_bandwidth", "spectral_rolloff", "zcr", "rms"]
)
N_FEATURES = len(FEATURE_NAMES)  # 37


@dataclass
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InputError("audio must be a non-empty 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise InputError("audio contains non-finite samples")
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class MelSpectrogram:
    values: np.ndarray  # (n_bands, n_steps), log-energy
    band_centers: np.ndarray  # Hz
    hop_ms: float


@dataclass
class FeatureVector:
    values: np.ndarray  # length 37, FEATURE_NAMES order
    names: list = field(default_factory=lambda: list(FEATURE_NAMES))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (N_FEATURES,):
            raise InputError(f"feature vector must have {N_FEATURES} entries")
        if not np.all(np.isfinite(self.values)):
            raise InputError("feature vector contains non-finite values")


# ---------------------------------------------------------------------------
# Audio I/O

def read_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM WAV file; stereo is downmixed by channel averaging.
    An unreadable, empty or non-PCM file is an InputError naming the path."""
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
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_ch > 1:
        data = data.reshape(-1, n_ch).mean(axis=1)
    try:
        return AudioBuffer(data, sr)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_wav(path, audio: AudioBuffer) -> None:
    """Write mono 16-bit PCM WAV."""
    pcm = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())


def resample(audio: AudioBuffer, sample_rate: int = SAMPLE_RATE) -> AudioBuffer:
    """Linear-interpolation resampling to the target rate."""
    if audio.sample_rate == sample_rate:
        return audio
    n_out = max(1, int(round(audio.samples.size * sample_rate / audio.sample_rate)))
    t_out = np.arange(n_out) * (audio.sample_rate / sample_rate)
    out = np.interp(t_out, np.arange(audio.samples.size), audio.samples)
    return AudioBuffer(out, sample_rate)


def load_audio(path, sample_rate: int = SAMPLE_RATE) -> AudioBuffer:
    """Read a WAV and normalize to mono at the toolkit rate."""
    return resample(read_wav(path), sample_rate)


# ---------------------------------------------------------------------------
# Framing and spectra

def frames_at(x: np.ndarray, starts, frame_len: int) -> np.ndarray:
    """Frames of `frame_len` samples beginning at each of `starts`; samples
    past the end of `x` read as zeros. Returns (len(starts), frame_len)."""
    padded = np.zeros(max(x.size, int(starts[-1]) + frame_len))
    padded[: x.size] = x
    return sliding_window_view(padded, frame_len)[starts]


def frame(audio: AudioBuffer, frame_ms: float = FRAME_MS, hop_ms: float = HOP_MS) -> np.ndarray:
    """Slice audio into (n_frames, frame_len) frames; frame i starts at
    floor(i * hop_ms * sr / 1000), for every start inside the audio.

    The trailing partial frames are zero-padded to the full frame length.
    """
    if frame_ms <= 0 or hop_ms <= 0:
        raise InputError("frame_ms and hop_ms must be positive")
    sr = audio.sample_rate
    frame_len = int(round(frame_ms * sr / 1000.0))
    if frame_len < 1:
        raise InputError("frame shorter than one sample")
    n = audio.samples.size
    # two spare indices absorb rounding in the bound; starts >= n are dropped
    i = np.arange(int(np.ceil(n / (hop_ms * sr / 1000.0))) + 2)
    starts = np.floor(i * hop_ms * sr / 1000.0).astype(np.intp)
    return frames_at(audio.samples, starts[starts < n], frame_len)


def hann(n: int) -> np.ndarray:
    return np.hanning(n)


def power_spectrum(frame_samples: np.ndarray, n_fft: int = N_FFT, window: str = "hann") -> np.ndarray:
    """|DFT|^2 of the windowed, zero-padded frame; one-sided (n_fft//2+1 bins)."""
    x = np.asarray(frame_samples, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty frame")
    if x.size > n_fft:
        raise InputError(f"frame length {x.size} exceeds n_fft {n_fft}")
    if window == "hann":
        x = x * hann(x.size)
    elif window != "rect":
        raise InputError(f"unknown window {window!r}")
    spec = np.fft.rfft(x, n=n_fft)
    return np.abs(spec) ** 2


def _frame_power(audio: AudioBuffer, frame_ms=FRAME_MS, hop_ms=HOP_MS, n_fft=N_FFT,
                 pre_emphasis: float | None = None):
    """Shared helper: (frames, power matrix, bin freqs) for the analysis grid."""
    x = audio.samples
    if pre_emphasis:
        x = np.append(x[0], x[1:] - pre_emphasis * x[:-1])
        audio = AudioBuffer(x, audio.sample_rate)
    frames = frame(audio, frame_ms, hop_ms)
    spec = np.fft.rfft(frames * hann(frames.shape[1]), n=n_fft, axis=1)
    power = np.abs(spec) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / audio.sample_rate)
    return frames, power, freqs


# ---------------------------------------------------------------------------
# Mel filterbank / MFCC

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int,
                   fmin: float = 0.0, fmax: float | None = None):
    """Triangular HTK-style Mel filters; returns (n_mels, n_fft//2+1) and
    centers, both read-only and shared between calls with equal arguments."""
    if fmax is None:
        fmax = sample_rate / 2.0
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    centers = hz_pts[1:-1]
    fb.setflags(write=False)
    centers.setflags(write=False)
    return fb, centers


def mfcc(audio: AudioBuffer, n_mfcc: int = N_MFCC, n_mels: int = N_MELS,
         frame_ms: float = FRAME_MS, hop_ms: float = HOP_MS, n_fft: int = N_FFT,
         pre_emphasis: float = PRE_EMPHASIS) -> np.ndarray:
    """Per-frame MFCCs: pre-emphasis -> frame -> Hann -> FFT power -> Mel ->
    log -> orthonormal DCT-II. Returns (n_frames, n_mfcc)."""
    if not 1 <= n_mfcc <= n_mels:
        raise InputError("n_mfcc must be in [1, n_mels]")
    frame_len = int(round(frame_ms * audio.sample_rate / 1000.0))
    if audio.samples.size < frame_len:
        raise InputError("audio shorter than one frame")
    _, power, _ = _frame_power(audio, frame_ms, hop_ms, n_fft, pre_emphasis)
    fb, _ = mel_filterbank(n_mels, n_fft, audio.sample_rate)
    mel_energy = power @ fb.T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return dct(log_mel, type=2, norm="ortho", axis=1)[:, :n_mfcc]


# ---------------------------------------------------------------------------
# Spectral scalars and chroma

def spectral_scalars(audio: AudioBuffer, frame_ms: float = FRAME_MS,
                     hop_ms: float = HOP_MS, n_fft: int = N_FFT,
                     rolloff_pct: float = ROLLOFF_PCT) -> np.ndarray:
    """Per-frame (centroid, bandwidth, rolloff, zcr, rms); shape (n_frames, 5).

    Silent frames get centroid = bandwidth = rolloff = 0 so averages stay finite.
    """
    frames, power, freqs = _frame_power(audio, frame_ms, hop_ms, n_fft)
    mag = np.sqrt(power)
    mag_sum = mag.sum(axis=1)
    live = mag_sum > 0

    centroid = np.zeros(len(mag))
    bandwidth = np.zeros(len(mag))
    rolloff = np.zeros(len(mag))
    if live.any():
        centroid[live] = (mag[live] * freqs).sum(axis=1) / mag_sum[live]
        dev = (freqs[None, :] - centroid[live, None]) ** 2
        bandwidth[live] = np.sqrt((dev * mag[live]).sum(axis=1) / mag_sum[live])
        cum = np.cumsum(power[live], axis=1)
        target = rolloff_pct * cum[:, -1:]
        idx = np.argmax(cum >= target, axis=1)
        rolloff[live] = freqs[idx]

    signs = np.sign(frames)
    flips = (signs[:, 1:] * signs[:, :-1]) < 0
    zcr = flips.sum(axis=1) / (frames.shape[1] - 1)
    rms = np.sqrt((frames ** 2).mean(axis=1))
    return np.column_stack([centroid, bandwidth, rolloff, zcr, rms])


@lru_cache(maxsize=None)
def _chroma_fold(n_fft: int, sample_rate: int, fmin: float) -> np.ndarray:
    """Read-only (n_fft//2+1, 12) 0/1 matrix sending each bin at or above
    fmin to its pitch class (A440 reference, A -> class 9)."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    usable = np.flatnonzero(freqs >= fmin)
    classes = (np.round(12.0 * np.log2(freqs[usable] / 440.0)).astype(int) + 9) % 12
    fold = np.zeros((freqs.size, N_CHROMA))
    fold[usable, classes] = 1.0
    fold.setflags(write=False)
    return fold


def chroma(audio: AudioBuffer, frame_ms: float = CHROMA_WIN_MS,
           hop_ms: float = HOP_MS, n_fft: int = CHROMA_N_FFT,
           fmin: float = CHROMA_FMIN_HZ) -> np.ndarray:
    """Per-frame 12-bin pitch-class profile (A440 reference, A -> class 9).

    Bin energies above the low-frequency cutoff are folded onto pitch
    classes; each frame is L2-normalized when nonzero. The analysis window
    is longer than the 20 ms grid because pitch-class resolution near 440 Hz
    needs better than 26 Hz frequency resolution; the hop matches the other
    per-frame features.
    """
    if audio.sample_rate < 8000:
        raise InputError("chroma requires sample_rate >= 8000")
    _, power, _ = _frame_power(audio, frame_ms, hop_ms, n_fft)
    out = power @ _chroma_fold(n_fft, audio.sample_rate, fmin)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    nz = norms[:, 0] > 0
    out[nz] /= norms[nz]
    return out


# ---------------------------------------------------------------------------
# Aggregate features and Mel spectrogram

def trim_silence(audio: AudioBuffer, threshold_db: float = -60.0) -> AudioBuffer:
    """Strip leading/trailing samples below threshold_db relative to peak.
    All-silent input is returned unchanged."""
    x = audio.samples
    peak = np.abs(x).max()
    if peak == 0:
        return audio
    live = np.where(np.abs(x) > peak * 10.0 ** (threshold_db / 20.0))[0]
    if live.size == 0:
        return audio
    return AudioBuffer(x[live[0]: live[-1] + 1], audio.sample_rate)


def extract_features(audio: AudioBuffer, trim: bool = False) -> FeatureVector:
    """Frame-averaged 37-dim feature vector in FEATURE_NAMES order."""
    if trim:
        audio = trim_silence(audio)
    m = mfcc(audio).mean(axis=0)
    c = chroma(audio).mean(axis=0)
    s = spectral_scalars(audio).mean(axis=0)
    return FeatureVector(np.concatenate([m, c, s]))


def mel_spectrogram(audio: AudioBuffer, n_bands: int = MEL_SPEC_BANDS,
                    hop_ms: float = MEL_SPEC_HOP_MS, win_ms: float = MEL_SPEC_WIN_MS,
                    n_fft: int = N_FFT) -> MelSpectrogram:
    """Log-Mel time-frequency matrix (n_bands x T); at the default 100 ms hop
    a t-second clip yields T = ceil(10 t) columns."""
    _, power, _ = _frame_power(audio, win_ms, hop_ms, n_fft)
    fb, centers = mel_filterbank(n_bands, n_fft, audio.sample_rate)
    mel_energy = power @ fb.T
    values = np.log(np.maximum(mel_energy, LOG_FLOOR)).T
    return MelSpectrogram(values, centers, hop_ms)
