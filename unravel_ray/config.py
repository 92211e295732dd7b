"""Pipeline configuration (config-driven policy, SURVEY.md §2.10).

Mirrors the reference's OcrProperties knob surface
(ocrprocessing/config/OcrProperties.java:25-57,85-116): provider choice +
fallback chain, size caps, retries — plus the Ray-specific execution
levers (batch sizes, actor-pool concurrency).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PipelineConfig:
    # provider policy (OcrProperties.java:25-42 default/fallback/enabled)
    preferred_provider: str = "fake"
    fallback_chain: tuple[str, ...] = ("fake",)
    ocr_max_retries: int = 3            # ocr.max-retries (OcrProperties.java:54-57)

    # execution levers
    explode_batch_size: int = 128       # docs per explode call
    ocr_batch_size: int = 256           # span rows per OCR actor call; small so
                                        # whale PDFs spread across the pool
    ocr_concurrency: tuple[int, int] | int = (2, 8)
    ocr_num_cpus: float = 1.0           # Tesseract is CPU-bound => 1 CPU/actor
    ocr_compute: str = "auto"           # "auto": actor pool iff a provider in
                                        # the chain requires warm engine state,
                                        # else worker-cached tasks

    seed: int = 42
