"""VIEWTYPE: sports-video view-type classification."""

from __future__ import annotations

from repro.mining.video import traced_viewtype_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Each thread's kernel arguments: its own frame span."""
    # Category C: per-thread frame spans, disjoint address ranges.
    return [
        {"n_frames": 10, "height": 20, "width": 24, "seed": 37 + t}
        for t in range(threads)
    ]


def build() -> Workload:
    """The VIEWTYPE workload (Section 2.6): dominant-color playfield analysis."""
    return Workload(
        name="VIEWTYPE",
        description="View-type classification (global/medium/close-up/out "
        "of view) via HSV dominant-color playfield segmentation and "
        "connected-component analysis.",
        category=CATEGORIES["VIEWTYPE"],
        model=memory_model("VIEWTYPE"),
        kernel=traced_viewtype_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["VIEWTYPE"][0],
        table1_dataset=PAPER_TABLE1["VIEWTYPE"][1],
    )
