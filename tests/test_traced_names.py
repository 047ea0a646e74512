"""The benchmark's tracer wraps lolrec functions by module and name
(`perfbench/tracing.py`, `WRAPPED`).  A refactor that removes or renames one
of them leaves every per-layer metric that needs it without a value, so
each wrapped name must still exist."""

from pathlib import Path

import pytest

import lolrec
import lolrec.cli  # noqa: F401  (the tracer looks names up on lolrec.cli too)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    return tracing


def test_every_wrapped_name_exists(tracing):
    recorder = tracing.Recorder()
    recorder.install(lolrec)
    try:
        assert recorder.absent == set()
    finally:
        recorder.uninstall()
    assert lolrec.cli.solve is lolrec.solver.solve
