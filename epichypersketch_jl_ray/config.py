"""Configuration for sketch pipelines.

Mirrors the reference's ``HyperSketchConfig`` keyword surface
(reference src/config.jl:6-38): delta, epsilon, batch_size, seed —
minus the CUDA knobs, plus the max_active_len truncation cap. The selection
threshold ``min_count`` is not a field: it is set only as a keyword of the
entry points (api.obtain_enriched_configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

# Reference defaults: /root/reference/src/EpicHyperSketch.jl:14-20
DEFAULT_CMS_DELTA = 1e-4
DEFAULT_CMS_EPSILON = 5e-5
DEFAULT_BATCH_SIZE = 4096
DEFAULT_SEED = 1234

# Cap on derived sequence length: C(len, k) work per row is superlinear in len
# (the reference's whole memory subsystem exists because of this,
# /root/reference/src/memory.jl:9-31). Rows longer than this are truncated and
# the truncation is surfaced in metrics — never silent.
DEFAULT_MAX_ACTIVE_LEN = 64


@dataclass
class SketchConfig:
    """Knobs shared by the sketch pipelines.

    delta/epsilon follow the reference CMS sizing formulas
    (rows = ceil(ln 1/delta), cols = ceil(e/epsilon),
    /root/reference/src/sketch.jl:5-25).
    """

    delta: float = DEFAULT_CMS_DELTA
    epsilon: float = DEFAULT_CMS_EPSILON
    seed: int = DEFAULT_SEED
    # int, or ":auto" — resolved per pipeline from the enumeration working
    # set (reference batch_size=:auto flow, /root/reference/src/record.jl:58-62
    # -> /root/reference/src/memory.jl:97-148)
    batch_size: int | str = DEFAULT_BATCH_SIZE
    max_active_len: int = DEFAULT_MAX_ACTIVE_LEN

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if isinstance(self.batch_size, str):
            if self.batch_size != ":auto":
                raise ValueError(f'batch_size must be an int or ":auto", got {self.batch_size!r}')
        elif self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
