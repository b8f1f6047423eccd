"""The parallel map's determinism contract.

A pooled map must return exactly what the serial one does:
``parallel_map`` keeps results in item order, and every grid task is a
pure function of its arguments.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepPointError
from repro.harness.parallel import default_jobs, parallel_map, resolve_jobs
from tests.tasks import model_mpki_point


def _fails_on_odd(item: int) -> int:
    if item % 2:
        raise ValueError(f"odd point {item}")
    return item


class TestParallelMap:
    POINTS = [("FIMI", 8, 4 * 2**20, 64), ("SNP", 8, 8 * 2**20, 64)] * 3

    def test_serial_and_parallel_results_identical(self):
        serial = parallel_map(model_mpki_point, self.POINTS, jobs=None)
        parallel = parallel_map(model_mpki_point, self.POINTS, jobs=2)
        assert serial == parallel

    def test_order_preserved(self):
        values = parallel_map(model_mpki_point, self.POINTS, jobs=2)
        assert values[0] == values[2] == values[4]
        assert values[1] == values[3] == values[5]

    def test_empty_items(self):
        assert parallel_map(model_mpki_point, [], jobs=4) == []

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_unsupervised_failure_raises_on_first_attempt(self, jobs):
        with pytest.raises(SweepPointError) as info:
            parallel_map(_fails_on_odd, [2, 3, 4], jobs=jobs)
        assert info.value.point == 3
        assert info.value.attempts == 1

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == default_jobs()
        assert default_jobs() >= 1
