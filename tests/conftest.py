import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def split_victims(monkeypatch):
    """Arm with ``split_victims(doc_ids, break_recompute=False)``: every
    extraction plan then emits two split-marker rows for each victim doc
    instead of its row, as a block-boundary split would. The commit's
    split-doc recompute (checkpoint._recompute_docs) stays clean — only
    the first plan of a call is marked — unless ``break_recompute``."""
    import unravel_ray.checkpoint as C
    import unravel_ray.pipeline as P

    real_core, real_recompute = P._build_extraction_core, C._recompute_docs
    state = {"victims": frozenset(), "break_recompute": False,
             "in_recompute": False}

    def core(docs, cfg):
        ds = real_core(docs, cfg)
        if state["in_recompute"] and not state["break_recompute"]:
            return ds
        victims = state["victims"]

        def sabotage(t):
            # self-contained: Ray workers cannot import the test modules
            import pyarrow as pa

            from unravel_ray.schema import SPLIT_MARKER_STATUS

            rows = []
            for r in t.to_pylist():
                if r["doc_id"] in victims:
                    m = dict(r, spans=[], status=SPLIT_MARKER_STATUS,
                             error_message=None, provider=None, n_spans=0,
                             n_chars=0, confidence_micros=None,
                             language_detected=None)
                    rows.extend([m, dict(m)])
                else:
                    rows.append(r)
            return pa.Table.from_pylist(rows, schema=t.schema)  # keeps the tag

        return ds.map_batches(sabotage, batch_format="pyarrow")

    def recompute(*args, **kwargs):
        state["in_recompute"] = True
        try:
            return real_recompute(*args, **kwargs)
        finally:
            state["in_recompute"] = False

    monkeypatch.setattr(P, "_build_extraction_core", core)
    monkeypatch.setattr(C, "_recompute_docs", recompute)

    def arm(doc_ids, break_recompute=False):
        state.update(victims=frozenset(doc_ids), break_recompute=break_recompute)

    return arm
