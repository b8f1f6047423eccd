"""SHOT: video shot-boundary detection."""

from __future__ import annotations

from repro.mining.video import traced_shot_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Each thread's kernel arguments: its own frame span."""
    # Category C: each thread processes its own frames in disjoint
    # private buffers (the Workload layer spaces the arena bases).
    return [
        {"n_frames": 16, "height": 20, "width": 24, "seed": 37 + t}
        for t in range(threads)
    ]


def build() -> Workload:
    """The SHOT workload (Section 2.6): 48-bin RGB histogram + pixel diff."""
    return Workload(
        name="SHOT",
        description="Shot-boundary detection on MPEG-2-like video: 48-bin "
        "RGB histograms with a pixel-wise difference supplement.",
        category=CATEGORIES["SHOT"],
        model=memory_model("SHOT"),
        kernel=traced_shot_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["SHOT"][0],
        table1_dataset=PAPER_TABLE1["SHOT"][1],
    )
