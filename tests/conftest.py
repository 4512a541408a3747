"""Shared fixtures: the acceptance-criterion line recorder and the fronts of
the benchmark's cube-tear commands.

Each acceptance test reports one human-readable summary line through the
`criterion` fixture; the collected lines are echoed in a section at the
end of the pytest run so the verdict survives output capture.
"""

import pytest

from wavefront import CubePoint, CubeSurface, init_front
from wavefront.frontier import fronts

_LINES = []


@pytest.fixture
def criterion():
    def record(num: int, ok: bool, detail: str) -> bool:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        _LINES.append((num, line))
        print(line)
        return ok

    return record


@pytest.fixture(scope="session")
def cube_tear_fronts():
    """The fronts of the benchmark's two cube-tear commands at every time of
    their grids: density from U/0.31/0.47 over 5:20:5 and components from
    U/0.5/0.5 over 0.5:1.5:0.25, both with the default parameters and
    walked as the commands walk them (``fronts``).  Built once for the
    surface and metrics tests."""
    out = []
    for source, times in ((CubePoint("U", 0.31, 0.47), (5.0, 10.0, 15.0, 20.0)),
                          (CubePoint("U", 0.5, 0.5), (0.5, 0.75, 1.0, 1.25, 1.5))):
        out += fronts(init_front(CubeSurface(1.0), source), times, lambda front: front)
    return out


def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_LINES):
            terminalreporter.write_line(line)
