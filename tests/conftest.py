"""Shared test plumbing: the acceptance-criteria result banner and a
counter of paper-exact's BFS runs."""

import pytest

from fabric_est import critical_path

_RESULTS: list[tuple[str, str, bool]] = []


def record_criterion(cid: str, label: str, ok: bool) -> None:
    _RESULTS.append((cid, label, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, label, ok in sorted(_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {cid} [{label}]: {status}")


@pytest.fixture
def bfs_runs(monkeypatch):
    """The first ops of every BFS paper_exact_cp runs, in run order."""
    runs: list[tuple[int, ...]] = []
    bfs = critical_path._bfs

    def counted(first, op_succs):
        runs.append(first)
        return bfs(first, op_succs)

    monkeypatch.setattr(critical_path, "_bfs", counted)
    return runs
