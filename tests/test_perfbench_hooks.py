"""The program names the repo benchmark (``perfbench/``) hooks still exist.

The traced benchmark wraps functions by ``(module, attribute path)``; a
rename in ``src`` would otherwise surface only when that benchmark runs.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, _PERFBENCH)

from layers import SPANS, _owner  # noqa: E402

_TARGETS = sorted({target for targets in SPANS.values()
                   for target in targets})


@pytest.mark.parametrize("module_name, path", _TARGETS)
def test_every_wrapped_span_target_resolves(module_name, path):
    owner, attr = _owner(module_name, path)
    assert callable(getattr(owner, attr)), (module_name, path)


def test_unwrapped_hooks_exist():
    from repro.browser.engine import Browser
    from repro.core.pipeline import Study
    from repro.crawler import ParallelCrawler
    from repro.service.jobs import JobRun

    assert callable(Study.crawl)
    assert callable(Browser._request)
    assert "resources" in inspect.signature(JobRun).parameters
    assert list(inspect.signature(ParallelCrawler).parameters)[:2] == [
        "population", "workers"]
