"""Multimodal column stages — image/audio decode, resize, feature extract,
frame sample — as actor-pool map_batches over opaque ``binary`` columns.

The decode kernels themselves are STUBBED (no PIL/ffmpeg in this
container): `DecodeBackend.decode` raises NotImplementedError unless a
real backend is importable, and `FakeDecodeBackend` produces
deterministic synthetic pixels so the Ray-side plumbing — schema, batch
sizing, actor signature, output layout — is real and tested.

Reference analog: the OCR providers consume image bytes fetched from URLs
(TesseractOcrProvider.java:197-205); here the bytes are a first-class
Arrow binary column with typed metadata, the 100 TB-friendly layout
(small batches, blobs never concatenated into Python lists).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ray.data import Dataset

IMAGE_META_FIELDS = [
    pa.field("width", pa.int32()),
    pa.field("height", pa.int32()),
    pa.field("format", pa.string()),
]


class DecodeBackend:
    """Real decode backend gate. Swap in PIL/pyav on a production image."""

    def __init__(self) -> None:
        try:
            from PIL import Image  # type: ignore  # noqa: F401

            self.available = True
        except ImportError:
            self.available = False

    def decode(self, blob: bytes) -> np.ndarray:
        if not self.available:
            raise NotImplementedError(
                "no image codec in this environment; use FakeDecodeBackend"
            )
        raise NotImplementedError("wire PIL decode here")


class FakeDecodeBackend(DecodeBackend):
    """Deterministic fake: pixels derived from the blob hash; shape 32x32x3.

    seed = first 8 hex chars of sha256(blob); pixel j = ((seed + j) *
    1000003 mod P31) mod 256 — a hash pattern instead of an RNG draw so
    the DuckDB oracle reproduces pixel sums verbatim (RandomState/MT19937
    is not SQL-expressible; the fake's only job is deterministic
    plumbing, so the SQL-exact formula is strictly better)."""

    _IDX = np.arange(32 * 32 * 3, dtype=np.int64)

    def __init__(self) -> None:  # noqa: D107 — no real codec probe
        self.available = True

    def decode(self, blob: bytes) -> np.ndarray:
        seed = int(hashlib.sha256(blob or b"").hexdigest()[:8], 16)
        pix = (seed + self._IDX) * 1000003 % 2147483647 % 256
        return pix.astype(np.uint8).reshape(32, 32, 3)


class ImageDecodeStage:
    """Actor-pool stage: binary blobs -> decoded pixel features.

    Keep ``batch_size`` SMALL (large payloads; a batch x concurrency must
    fit worker heap — SURVEY.md §4 memory note). Backend built once per
    actor.
    """

    def __init__(self, backend: str = "fake", blob_col: str = "blob"):
        self.backend = FakeDecodeBackend() if backend == "fake" else DecodeBackend()
        self.blob_col = blob_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch[self.blob_col].to_pylist()
        widths, heights, means, micros = [], [], [], []
        for b in blobs:
            img = self.backend.decode(b)
            n = img.size
            s = int(img.sum(dtype=np.int64))
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            # exact integer micros (hash-stable); float mean for API use
            micros.append(s * 1_000_000 // n)
            means.append(s / n)
        return (
            batch.drop_columns([self.blob_col])
            .append_column("width", pa.array(widths, pa.int32()))
            .append_column("height", pa.array(heights, pa.int32()))
            .append_column("pixel_mean", pa.array(means, pa.float64()))
            .append_column("pixel_mean_micros", pa.array(micros, pa.int64()))
        )


class ImageResizeStage:
    """Resize decoded tensors (fake: crops the deterministic tensor)."""

    def __init__(self, size: tuple[int, int] = (16, 16), blob_col: str = "blob"):
        self.size = size
        self.backend = FakeDecodeBackend()
        self.blob_col = blob_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch[self.blob_col].to_pylist()
        out = []
        h, w = self.size
        for b in blobs:
            img = self.backend.decode(b)[: h, : w]
            out.append(img.reshape(-1).tolist())
        return batch.append_column(
            "pixels", pa.array(out, pa.list_(pa.uint8()))
        )


def decode_images(ds: Dataset, backend: str = "fake", blob_col: str = "blob",
                  batch_size: int = 32, concurrency=(1, 2)) -> Dataset:
    """Image decode pipeline entry — small batches, an actor pool that
    scales from one actor to two (a one-block input never idles an
    actor)."""
    return ds.map_batches(
        ImageDecodeStage,
        fn_constructor_kwargs={"backend": backend, "blob_col": blob_col},
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency,
    )


def synth_blobs(ids: list[str]) -> pa.Table:
    """Deterministic fake binary payloads keyed by id (for tests/bench):
    sha256 hexdigest ASCII bytes x8 (512 B). ASCII on purpose — DuckDB's
    sha256 only hashes VARCHAR, so the id -> blob -> decode-seed chain
    stays SQL-reproducible end to end."""
    blobs = [hashlib.sha256(f"blob:{i}".encode()).hexdigest().encode() * 8
             for i in ids]
    return pa.table({"media_id": pa.array(ids, pa.string()),
                     "blob": pa.array(blobs, pa.binary())})


class AudioFeatureStage:
    """Actor-pool stage: audio blobs -> duration/energy features.

    Decode is STUBBED (no ffmpeg/soundfile here): `FakeAudioBackend`
    produces a deterministic PCM-ish tensor from the blob hash; a real
    backend (pyav/soundfile) slots into ``decode`` unchanged. Batch sizes
    stay small — audio blobs are MBs each (SURVEY.md §4 memory note).
    """

    SAMPLE_RATE = 16_000
    ENERGY_WINDOW = 1024  # energy computed over the first W samples — a
    # fixed-cost feature regardless of clip length (and SQL-reproducible)
    _P31 = 2147483647
    _WIDX = np.arange(1024, dtype=np.int64)

    def __init__(self, blob_col: str = "blob", backend: str = "fake"):
        # backend is an explicit choice (like ImageDecodeStage): the fake
        # must keep working even when a real codec happens to be installed
        self.blob_col = blob_col
        self.backend = backend

    def decode(self, blob: bytes) -> np.ndarray:
        """Fake PCM in milli-amplitude int64: sample j = ((seed + j) *
        1000003 mod P31) mod 2001 - 1000 — a hash pattern, not an RNG
        draw, so the DuckDB oracle reproduces energy sums verbatim (same
        rationale as FakeDecodeBackend)."""
        if self.backend == "fake":
            seed = int(hashlib.sha256(blob or b"").hexdigest()[:8], 16)
            n = self.SAMPLE_RATE * (1 + seed % 5)  # 1-5 s deterministic
            idx = np.arange(n, dtype=np.int64)
            return ((seed + idx) * 1000003 % self._P31 % 2001 - 1000)
        import soundfile  # type: ignore  # noqa: F401

        raise NotImplementedError("wire soundfile decode here")

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch[self.blob_col].to_pylist()
        dur_ms, dur, msq, energy = [], [], [], []
        for b in blobs:
            if self.backend == "fake":
                # duration + window derived without materializing the clip
                seed = int(hashlib.sha256(b or b"").hexdigest()[:8], 16)
                n = self.SAMPLE_RATE * (1 + seed % 5)
                win = (seed + self._WIDX) * 1000003 % self._P31 % 2001 - 1000
            else:
                pcm = self.decode(b)
                n = len(pcm)
                win = pcm[: self.ENERGY_WINDOW].astype(np.int64)
            w = int(min(self.ENERGY_WINDOW, n))
            mean_sq = int((win[:w] ** 2).sum()) // w  # exact milli^2
            dur_ms.append(n * 1000 // self.SAMPLE_RATE)
            dur.append(n / self.SAMPLE_RATE)
            msq.append(mean_sq)
            energy.append((mean_sq ** 0.5) / 1000.0)
        return (
            batch.drop_columns([self.blob_col])
            .append_column("duration_ms", pa.array(dur_ms, pa.int64()))
            .append_column("duration_s", pa.array(dur, pa.float64()))
            .append_column("rms_milli_sq", pa.array(msq, pa.int64()))
            .append_column("rms_energy", pa.array(energy, pa.float64()))
        )


class FrameSampleStage:
    """Actor-pool stage: video blobs -> N sampled frame features.

    Decode is STUBBED (no pyav): deterministic fake frames from the blob
    hash; emits one row per sampled frame (flat_map shape — media explode
    mirrors the pdf-page explode in the text pipeline).
    """

    def __init__(self, n_frames: int = 4, blob_col: str = "blob",
                 id_col: str = "media_id"):
        self.n_frames = n_frames
        self.blob_col = blob_col
        self.id_col = id_col
        self.backend = FakeDecodeBackend()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        blobs = batch[self.blob_col].to_pylist()
        out_id, out_frame, out_mean, out_micros = [], [], [], []
        for mid, b in zip(ids, blobs):
            for f in range(self.n_frames):
                # ASCII frame salt so the blob -> frame-seed sha256 chain
                # stays VARCHAR-safe for the SQL oracle (binary salts
                # can't round-trip through DuckDB's sha256)
                frame = self.backend.decode((b or b"") + f":frame:{f}".encode())
                n = frame.size
                s = int(frame.sum(dtype=np.int64))
                out_id.append(mid)
                out_frame.append(f)
                out_mean.append(s / n)
                out_micros.append(s * 1_000_000 // n)
        return pa.table({
            self.id_col: pa.array(out_id, pa.string()),
            "frame_no": pa.array(out_frame, pa.int32()),
            "pixel_mean": pa.array(out_mean, pa.float64()),
            "pixel_mean_micros": pa.array(out_micros, pa.int64()),
        })


def extract_audio_features(ds: Dataset, batch_size: int = 16,
                           concurrency=(1, 2)) -> Dataset:
    return ds.map_batches(AudioFeatureStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


def sample_frames(ds: Dataset, n_frames: int = 4, batch_size: int = 8,
                  concurrency=(1, 2)) -> Dataset:
    return ds.map_batches(FrameSampleStage,
                          fn_constructor_kwargs={"n_frames": n_frames},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)
