import struct
import tracemalloc

import numpy as np
import pytest

from spoofkit import dsp
from spoofkit.dsp import AudioBuffer
from spoofkit.errors import InputError

SR = 16000


def wav_bytes(fmt=1, bits=16, samples=(0.0, 0.25, -0.5), sr=SR):
    """A mono RIFF/WAVE file: 16-bit PCM (fmt 1) or 32-bit float (fmt 3)."""
    if fmt == 3:
        data = struct.pack(f"<{len(samples)}f", *samples)
    else:
        data = struct.pack(f"<{len(samples)}h", *(int(v * 32767) for v in samples))
    block = bits // 8
    chunks = (struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt, 1, sr, sr * block, block, bits)
              + struct.pack("<4sI", b"data", len(data)) + data)
    return struct.pack("<4sI4s", b"RIFF", 4 + len(chunks), b"WAVE") + chunks


def tone(freq, duration_s=1.0, amp=1.0, sr=SR):
    t = np.arange(int(duration_s * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def naive_dft_power(x, n_fft):
    """Brute-force O(n^2) DFT power oracle, one-sided."""
    xp = np.zeros(n_fft)
    xp[: len(x)] = x
    n = np.arange(n_fft)
    out = np.empty(n_fft // 2 + 1)
    for k in range(n_fft // 2 + 1):
        out[k] = np.abs(np.sum(xp * np.exp(-2j * np.pi * k * n / n_fft))) ** 2
    return out


class TestFrame:
    def test_frame_starts_and_padding(self):
        frames = dsp.frame(AudioBuffer(np.arange(1, 401, dtype=float), SR), 20, 10)
        assert frames.shape == (3, 320)
        assert frames[0, 0] == 1.0
        assert frames[1, 0] == 161.0
        assert frames[2, 0] == 321.0
        # frame 2 covers samples 320..399 then zero padding
        assert np.all(frames[2, 80:] == 0.0)
        assert np.all(frames[2, :80] == np.arange(321, 401))

    def test_exact_fit_single_frame(self):
        frames = dsp.frame(AudioBuffer(np.ones(320), SR), 20, 20)
        assert frames.shape == (1, 320)
        assert np.all(frames == 1.0)

    def test_fractional_hop_starts_and_padding(self):
        # 10 ms at 22 050 Hz is 220.5 samples; starts are floored, not rounded
        sr = 22050
        x = np.arange(1, 1001, dtype=float)
        frames = dsp.frame(AudioBuffer(x, sr), 20, 10)
        starts = [0, 220, 441, 661, 882]
        assert frames.shape == (5, 441)
        assert np.array_equal(frames[:, 0], x[starts])
        # the last frame covers samples 882..999 then zero padding
        assert np.array_equal(frames[4, :118], x[882:])
        assert np.all(frames[4, 118:] == 0.0)
        assert np.array_equal(frames[3, :339], x[661:])
        assert np.all(frames[3, 339:] == 0.0)

    def test_all_zero_audio(self):
        frames = dsp.frame(AudioBuffer(np.zeros(1000), SR), 20, 10)
        assert np.all(frames == 0.0)

    def test_empty_audio_rejected(self):
        with pytest.raises(InputError):
            AudioBuffer(np.array([]), SR)


class TestFramesAt:
    def test_even_starts_read_only_view(self):
        x = np.arange(1000.0)
        frames = dsp.frames_at(x, np.arange(0, 1000, 160), 320)
        assert not frames.flags.writeable and not frames.flags.owndata
        assert frames.shape == (7, 320)
        assert np.array_equal(frames[2], x[320:640])
        assert np.array_equal(frames[6], np.r_[x[960:], np.zeros(280)])

    def test_single_start_view(self):
        frames = dsp.frames_at(np.ones(10), [4], 8)
        assert not frames.flags.writeable
        assert np.array_equal(frames, [[1.0] * 6 + [0.0] * 2])

    def test_uneven_starts_copy(self):
        x = np.arange(1000.0)
        frames = dsp.frames_at(x, [0, 220, 441], 441)
        assert frames.flags.writeable and frames.flags.owndata
        assert np.array_equal(frames[2], x[441:882])

    def test_gapped_starts_copy(self):
        # starts 160 apart, frames of 40: the view would pin 4x what they read
        x = np.arange(1000.0)
        frames = dsp.frames_at(x, np.arange(0, 1000, 160), 40)
        assert frames.flags.writeable and frames.flags.owndata
        assert np.array_equal(frames[2], x[320:360])
        assert np.array_equal(frames[6], x[960:])

    def test_log_mel_frames_do_not_pin_the_clip(self):
        audio = AudioBuffer(0.1 * np.random.default_rng(0).standard_normal(int(3.6 * SR)), SR)
        dsp.mel_spectrogram(audio)  # fill the filterbank cache first
        tracemalloc.start()
        try:
            frames = dsp.frame(audio, dsp.MEL_SPEC_WIN_MS, dsp.MEL_SPEC_HOP_MS)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            dsp.mel_spectrogram(audio)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 25 ms frames at a 100 ms hop read a quarter of the clip
        assert held < frames.nbytes + 4096 < audio.samples.nbytes / 3
        # the padded clip, the frames and one block's spectra; a view kept
        # the padded clip alive through the FFT (0.91 MiB)
        assert peak - held < 1.5 * audio.samples.nbytes

    def test_frame_view_at_16k_copy_at_22050(self):
        grid = dsp.FRAME_MS, dsp.HOP_MS
        assert not dsp.frame(AudioBuffer(np.ones(SR), SR), *grid).flags.writeable
        assert dsp.frame(AudioBuffer(np.ones(22050), 22050), *grid).flags.owndata


def block_edges(n_fft):
    """Frame counts around the STFT blocks of an n_fft-point FFT: a block
    holds STFT_BLOCK // n_fft frames, 64 at 512 points and 16 at 2048."""
    block = dsp.STFT_BLOCK // n_fft
    return [block - 1, block, block + 1, 2 * block + 1]


class TestStreamingStft:
    def check_blocks(self, sr, n_frames, n_fft):
        # starts at floor(i * 10 ms * sr); the last frame starts inside the clip
        starts = np.floor(np.arange(n_frames) * dsp.HOP_MS * sr / 1000).astype(int)
        x = np.random.default_rng(n_frames).standard_normal(starts[-1] + 1)
        frames, power, size = dsp._frame_power(AudioBuffer(x, sr), dsp.FRAME_MS, dsp.HOP_MS, n_fft)
        frame_len = int(round(dsp.FRAME_MS * sr / 1000))
        one_shot = dsp.power_spectrum(
            dsp.frames_at(x, starts, frame_len) * np.hanning(frame_len), n_fft)
        assert len(frames) == n_frames
        assert np.array_equal(power, one_shot)
        assert size == n_fft

    @pytest.mark.parametrize("sr", [SR, 22050])
    @pytest.mark.parametrize("n_frames", block_edges(dsp.N_FFT))
    def test_blocks_equal_one_shot(self, sr, n_frames):
        self.check_blocks(sr, n_frames, dsp.N_FFT)

    @pytest.mark.parametrize("n_frames", block_edges(dsp.CHROMA_N_FFT))
    def test_chroma_size_blocks_equal_one_shot(self, n_frames):
        self.check_blocks(SR, n_frames, dsp.CHROMA_N_FFT)

    def test_chroma_of_frame_longer_than_nfft_matches_naive_dft(self):
        # chroma at 22 050 Hz: a 2822-sample frame, longer than the 2048-point
        # FFT, so the DFT grows to 4096 points and sees the whole windowed frame
        sr, frame_len, n_fft = 22050, 2822, 4096
        x = np.random.default_rng(5).standard_normal(sr // 4)
        got = dsp.chroma(AudioBuffer(x, sr))
        freqs = np.arange(n_fft // 2 + 1) * sr / n_fft
        usable = freqs >= dsp.CHROMA_FMIN_HZ
        classes = (np.round(12 * np.log2(freqs[usable] / 440.0)).astype(int) + 9) % 12
        for i in (0, len(got) // 2, len(got) - 1):
            start = int(np.floor(i * dsp.HOP_MS * sr / 1000))
            frame = np.zeros(frame_len)
            live = x[start: start + frame_len]
            frame[: live.size] = live
            power = naive_dft_power(frame * np.hanning(frame_len), n_fft)
            profile = np.bincount(classes, weights=power[usable], minlength=12)
            assert np.allclose(got[i], profile / np.linalg.norm(profile), rtol=0, atol=1e-9)

    def test_extract_features_peak_memory(self):
        # a one-shot STFT of this 3.6 s clip peaks near 17 MiB
        audio = AudioBuffer(0.1 * np.random.default_rng(0).standard_normal(int(3.6 * SR)), SR)
        dsp.extract_features(audio)  # fill the filterbank caches first
        tracemalloc.start()
        try:
            dsp.extract_features(audio)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.all(dsp.power_spectrum(np.zeros(320), dsp.N_FFT) == 0.0)

    def test_bin_centered_sinusoid_rect_window(self):
        # 1000 Hz = bin 32 exactly for n_fft 512 at 16 kHz
        x = np.sin(2 * np.pi * 1000 * np.arange(512) / SR)
        ps = dsp.power_spectrum(x, 512)
        assert ps.argmax() == 32
        # closed form: |DFT| of a full-cycle sinusoid is N/2 at its bin
        assert ps[32] == pytest.approx((512 / 2) ** 2, rel=1e-9)
        others = np.delete(ps, 32)
        assert others.max() < 1e-12 * ps[32]

    @pytest.mark.parametrize("n", [7, 64, 100, 320, 512])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        w = x * np.hanning(n)
        ps = dsp.power_spectrum(w, 512)
        oracle = naive_dft_power(w, 512)
        denom = np.maximum(np.abs(oracle), oracle.max() * 1e-30 + 1e-300)
        assert np.max(np.abs(ps - oracle) / denom) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(320)
        w = x * np.hanning(320)
        ps = dsp.power_spectrum(w, 512)
        # rebuild the full two-sided spectrum energy from the one-sided bins
        full = ps.sum() * 2 - ps[0] - ps[-1]
        energy = 512 * np.sum(w ** 2)
        assert full == pytest.approx(energy, rel=1e-6)

    def test_stack_equals_single_frames(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 320))
        stacked = dsp.power_spectrum(x, dsp.N_FFT)
        assert stacked.shape == (2, 3, 257)
        assert np.array_equal(stacked[1, 2], dsp.power_spectrum(x[1, 2], dsp.N_FFT))

    def test_frame_longer_than_nfft_rejected(self):
        with pytest.raises(InputError):
            dsp.power_spectrum(np.ones(600), 512)


class TestMfcc:
    def test_stage_composition_oracle(self):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(0.2 * rng.standard_normal(SR // 2), SR)
        got = dsp.mfcc(audio)
        # recompose from independently exercised stages
        x = audio.samples
        pre = np.append(x[0], x[1:] - dsp.PRE_EMPHASIS * x[:-1])
        frames = dsp.frame(AudioBuffer(pre, SR), 20, 10)
        fb = dsp.mel_filterbank(dsp.N_MELS, dsp.N_FFT, SR)
        from scipy.fft import dct
        rows = []
        for fr in frames:
            ps = dsp.power_spectrum(fr * np.hanning(fr.size), dsp.N_FFT)
            logmel = np.log(np.maximum(ps @ fb.T, dsp.LOG_FLOOR))
            rows.append(dct(logmel, type=2, norm="ortho")[: dsp.N_MFCC])
        assert np.allclose(got, np.array(rows), atol=1e-6)

    def test_filterbank_read_only(self):
        fb = dsp.mel_filterbank(dsp.N_MELS, dsp.N_FFT, SR)
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_dc_input_pre_emphasis(self):
        audio = AudioBuffer(np.full(SR // 4, 0.5), SR)
        # hand recurrence: y[0] = 0.5, y[n] = 0.5 - 0.97 * 0.5 = 0.015
        pre = np.append(audio.samples[0],
                        audio.samples[1:] - 0.97 * audio.samples[:-1])
        assert pre[0] == 0.5
        assert np.allclose(pre[1:], 0.015)
        got = dsp.mfcc(audio)
        frames = dsp.frame(AudioBuffer(pre, SR), 20, 10)
        fb = dsp.mel_filterbank(dsp.N_MELS, dsp.N_FFT, SR)
        from scipy.fft import dct
        power = np.stack([dsp.power_spectrum(fr * np.hanning(fr.size), dsp.N_FFT)
                          for fr in frames])
        oracle = dct(np.log(np.maximum(power @ fb.T, dsp.LOG_FLOOR)),
                     type=2, norm="ortho", axis=1)[:, : dsp.N_MFCC]
        assert np.allclose(got, oracle, atol=1e-8)

    def test_scaling_shifts_only_first_coefficient(self):
        rng = np.random.default_rng(3)
        x = 0.1 * rng.standard_normal(SR // 2)
        m1 = dsp.mfcc(AudioBuffer(x, SR))
        m2 = dsp.mfcc(AudioBuffer(2 * x, SR))
        assert np.allclose(m1[:, 1:], m2[:, 1:], atol=1e-6)
        shift = m2[:, 0] - m1[:, 0]
        assert np.allclose(shift, shift[0], atol=1e-6)
        assert shift[0] > 0

    def test_too_short_audio(self):
        with pytest.raises(InputError):
            dsp.mfcc(AudioBuffer(np.ones(100), SR))


class TestSpectralScalars:
    def test_sine_rms(self):
        sc = dsp.spectral_scalars(tone(1000))
        # skip zero-padded trailing frames
        assert np.allclose(sc[:-2, 4], 1 / np.sqrt(2), atol=1e-3)

    def test_constant_signal_zcr(self):
        sc = dsp.spectral_scalars(AudioBuffer(np.full(2000, 0.3), SR))
        assert np.all(sc[:, 3] == 0.0)

    def test_pure_tone_centroid_and_rolloff(self):
        bin_width = SR / dsp.N_FFT  # 31.25 Hz
        sc = dsp.spectral_scalars(tone(1000))[:-2]
        assert np.allclose(sc[:, 0], 1000, atol=bin_width)
        assert np.all(np.abs(sc[:, 2] - 1000) <= bin_width)

    def test_silence_scalars_zero(self):
        sc = dsp.spectral_scalars(AudioBuffer(np.zeros(2000), SR))
        assert np.all(sc[:, :3] == 0.0)
        assert np.all(sc[:, 4] == 0.0)

    def test_all_live_rows_equal_rows_beside_silent_frames(self):
        # all frames live (whole-array views) vs the same frames next to
        # silent ones (masked copies)
        x = np.random.default_rng(3).standard_normal(5000)
        live = dsp.spectral_scalars(AudioBuffer(x, SR))
        mixed = dsp.spectral_scalars(AudioBuffer(np.concatenate([x, np.zeros(2000)]), SR))
        assert np.all(live[:, 0] > 0) and np.any(mixed[:, 0] == 0)
        assert np.array_equal(mixed[:len(live)], live)

    def test_zcr_range_and_rms_nonneg(self):
        rng = np.random.default_rng(0)
        sc = dsp.spectral_scalars(AudioBuffer(rng.standard_normal(5000), SR))
        assert np.all((sc[:, 3] >= 0) & (sc[:, 3] <= 1))
        assert np.all(sc[:, 4] >= 0)

    def test_rolloff_matches_per_frame_loop(self):
        # the first bin whose cumulative power reaches ROLLOFF_PCT (85%) of
        # the frame's total, one frame and one bin at a time
        rng = np.random.default_rng(5)
        audio = AudioBuffer(rng.standard_normal(4000), SR)
        got = dsp.spectral_scalars(audio)[:, 2]
        frames = dsp.frame(audio, dsp.FRAME_MS, dsp.HOP_MS)
        assert len(got) == len(frames)
        for fr, rolloff in zip(frames, got):
            power = np.abs(np.fft.rfft(fr * np.hanning(fr.size), dsp.N_FFT)) ** 2
            target = dsp.ROLLOFF_PCT * sum(power)
            acc = 0.0
            for k, p in enumerate(power):
                acc += p
                if acc >= target:
                    break
            assert rolloff == k * SR / dsp.N_FFT


class TestChroma:
    def test_440_concentrated_in_a(self):
        v = dsp.chroma(tone(440)).mean(axis=0)
        assert v.argmax() == 9
        assert v[9] / np.abs(v).sum() >= 0.9

    @pytest.mark.parametrize("freq", [220.0, 440.0, 1000.0])
    def test_octave_invariance(self, freq):
        lo = dsp.chroma(tone(freq)).mean(axis=0).argmax()
        hi = dsp.chroma(tone(2 * freq)).mean(axis=0).argmax()
        assert lo == hi

    def test_matches_brute_force_fold(self):
        rng = np.random.default_rng(12)
        t = np.arange(SR // 2) / SR
        x = (0.3 * np.sin(2 * np.pi * 261.6 * t) + 0.2 * np.sin(2 * np.pi * 987.8 * t)
             + 0.05 * rng.standard_normal(t.size))
        got = dsp.chroma(AudioBuffer(x, SR))
        frame_len = int(round(dsp.CHROMA_WIN_MS * SR / 1000))
        freqs = np.fft.rfftfreq(dsp.CHROMA_N_FFT, d=1.0 / SR)
        rows = []
        for i in range(x.size):
            start = int(np.floor(i * dsp.HOP_MS * SR / 1000))
            if start >= x.size:
                break
            fr = np.zeros(frame_len)
            chunk = x[start: start + frame_len]
            fr[: chunk.size] = chunk
            ps = dsp.power_spectrum(fr * np.hanning(frame_len), dsp.CHROMA_N_FFT)
            row = np.zeros(12)
            for f, p in zip(freqs, ps):
                if f >= dsp.CHROMA_FMIN_HZ:
                    row[(int(np.round(12 * np.log2(f / 440.0))) + 9) % 12] += p
            rows.append(row / np.linalg.norm(row))
        assert got.shape == (len(rows), 12)
        assert np.abs(got - np.array(rows)).max() <= 1e-12

    def test_silence_zero(self):
        assert np.all(dsp.chroma(AudioBuffer(np.zeros(SR // 2), SR)) == 0.0)

    def test_low_rate_rejected(self):
        with pytest.raises(InputError):
            dsp.chroma(AudioBuffer(np.ones(4000), 4000))


class TestExtractFeatures:
    def test_equals_mean_of_stage_outputs(self):
        audio = tone(500, 0.4)
        fv = dsp.extract_features(audio).values
        oracle = np.concatenate([
            dsp.mfcc(audio).mean(axis=0),
            dsp.chroma(audio).mean(axis=0),
            dsp.spectral_scalars(audio).mean(axis=0),
        ])
        assert np.array_equal(fv, oracle)

    def test_mean_of_identical_frames(self):
        # a 160-periodic signal on the 160-sample (10 ms) hop: every whole
        # 20 ms frame holds the same samples. Pre-emphasis changes frame 0's
        # first sample only, which the Hann window zeroes.
        pattern = np.sin(2 * np.pi * np.arange(160) * 3 / 160)
        audio = AudioBuffer(np.tile(pattern, 20), SR)
        m = dsp.mfcc(audio)
        assert len(m) == 20
        m = m[:-1]  # the last frame runs into zero padding
        assert np.allclose(m, m[0], atol=1e-9)
        assert np.allclose(m.mean(axis=0), m[0], atol=1e-9)

    def test_shape_finite_deterministic_on_random_fixtures(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            audio = AudioBuffer(
                0.5 * rng.standard_normal(rng.integers(2000, 8000)), SR)
            a = dsp.extract_features(audio)
            b = dsp.extract_features(AudioBuffer(audio.samples.copy(), SR))
            assert a.values.shape == (37,)
            assert np.all(np.isfinite(a.values))
            assert a.values.tobytes() == b.values.tobytes()
        assert 0.0 <= a.values[35] <= 1.0  # zcr
        assert a.values[36] >= 0.0  # rms


class TestMelSpectrogram:
    def test_six_second_shape(self):
        spec = dsp.mel_spectrogram(tone(440, 6.0))
        assert spec.shape == (128, 60)

    def test_column_major_float64_array(self):
        # the transformer's bits depend on this layout (see normalize_spec)
        spec = dsp.mel_spectrogram(tone(440, 1.6))
        assert type(spec) is np.ndarray and spec.dtype == np.float64
        assert spec.shape == (dsp.MEL_SPEC_BANDS, 16)
        assert spec.flags.f_contiguous and not spec.flags.c_contiguous

    def test_silence_is_log_floor(self):
        spec = dsp.mel_spectrogram(AudioBuffer(np.zeros(SR), SR))
        assert np.all(spec == np.log(dsp.LOG_FLOOR))

    def test_amplitude_doubling_adds_constant(self):
        audio = tone(440, 1.0, amp=0.4)
        s1 = dsp.mel_spectrogram(audio)
        s2 = dsp.mel_spectrogram(AudioBuffer(2 * audio.samples, SR))
        diff = s2 - s1
        above = s1 > np.log(dsp.LOG_FLOOR)  # floored cells do not shift
        assert np.allclose(diff[above], np.log(4.0), atol=1e-9)

    def test_t_equals_ceil_10_duration(self):
        for n in (1000, 25600, 30001):
            spec = dsp.mel_spectrogram(AudioBuffer(np.ones(n), SR))
            assert spec.shape[1] == int(np.ceil(10 * n / SR))


class TestAudioIO:
    def test_wav_roundtrip_and_stereo_downmix(self, tmp_path):
        rng = np.random.default_rng(2)
        x = np.clip(0.5 * rng.standard_normal(1000), -0.9, 0.9)
        path = tmp_path / "mono.wav"
        dsp.write_wav(path, AudioBuffer(x, SR))
        back = dsp.read_wav(path)
        assert back.sample_rate == SR
        assert np.allclose(back.samples, x, atol=1 / 32768)

        # stereo: write interleaved manually
        import wave
        left = np.full(100, 0.5)
        right = np.full(100, -0.5)
        inter = np.empty(200)
        inter[0::2], inter[1::2] = left, right
        pcm = np.round(inter * 32767).astype("<i2")
        spath = tmp_path / "stereo.wav"
        with wave.open(str(spath), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(SR)
            wf.writeframes(pcm.tobytes())
        mixed = dsp.read_wav(spath)
        assert np.allclose(mixed.samples, 0.0, atol=1 / 32768)

    def test_struct_built_pcm_wav_reads(self, tmp_path):
        path = tmp_path / "pcm.wav"
        path.write_bytes(wav_bytes())
        audio = dsp.read_wav(path)
        assert audio.sample_rate == SR
        assert np.allclose(audio.samples, [0.0, 0.25, -0.5], atol=1 / 32768)

    def test_float_wav_rejected_naming_file(self, tmp_path):
        path = tmp_path / "float32.wav"
        path.write_bytes(wav_bytes(fmt=3, bits=32))
        with pytest.raises(InputError, match="float32.wav"):
            dsp.read_wav(path)

    def test_empty_wav_rejected_naming_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(b"")
        with pytest.raises(InputError, match="empty.wav"):
            dsp.read_wav(path)

    def test_wav_without_samples_rejected_naming_file(self, tmp_path):
        path = tmp_path / "silent.wav"
        path.write_bytes(wav_bytes(samples=()))
        with pytest.raises(InputError, match="silent.wav"):
            dsp.read_wav(path)

    def test_resample_preserves_duration(self):
        audio = tone(440, 0.5, sr=8000)
        out = dsp.resample(audio)
        assert out.sample_rate == SR
        assert out.samples.size == SR // 2


class TestTrimSilence:
    def test_strips_padding(self):
        x = np.r_[np.zeros(500), 0.5 * np.ones(200), np.zeros(300)]
        out = dsp.trim_silence(AudioBuffer(x, SR))
        assert np.array_equal(out.samples, x[500:700])

    def test_all_silent_unchanged(self):
        audio = AudioBuffer(np.zeros(100), SR)
        assert dsp.trim_silence(audio) is audio

    def test_threshold_relative_to_peak(self):
        x = np.r_[np.full(100, 1e-4), np.ones(100)]
        # 1e-4 is 80 dB below the peak, under TRIM_DB (-60 dB)
        out = dsp.trim_silence(AudioBuffer(x, SR))
        assert out.samples.size == 100

    def test_extract_features_trim_changes_padded_clip(self):
        audio = tone(440, 0.3)
        padded = AudioBuffer(np.r_[audio.samples, np.zeros(SR)], SR)
        trimmed = dsp.extract_features(padded, trim=True)
        plain = dsp.extract_features(padded)
        assert np.array_equal(
            trimmed.values,
            dsp.extract_features(dsp.trim_silence(padded)).values)
        assert not np.array_equal(trimmed.values, plain.values)
