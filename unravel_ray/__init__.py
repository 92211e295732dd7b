"""unravel_ray — a Ray-Data-native document extraction & data-processing engine.

A from-scratch rebuild of the data-processing semantics of the
``Brints/unraveldocs-api`` reference (Java/Spring OCR SaaS) as idiomatic
Ray Data pipelines: ``ray.data.Dataset`` -> ``map_batches`` over zero-copy
Arrow batches, actor pools for stateful OCR stages, shuffle-free
block-local span reassembly with targeted repair of split docs, and
per-file partition-manifest checkpointing for exact resume.

Nothing here imports from or translates the reference's Java code; the
reference defines WHAT to compute (see SURVEY.md for file:line citations),
this package defines HOW on Ray Data.

Library code never calls ``ray.init()``/``ray.shutdown()`` — the driver,
``bench.py`` and the pytest session fixture own the Ray session.
"""

__version__ = "0.1.0"
