"""Shared fixtures."""

import pytest

from impactzeta import genfun, orders


def _clear_closed_form_memos():
    orders.principal_zeta.cache_clear()
    genfun.layer_genfun_q.cache_clear()


@pytest.fixture
def cold_closed_forms(monkeypatch):
    """Empty the two closed-form memos (``orders.principal_zeta`` and
    ``genfun.layer_genfun_q``) before the test, after every patch made with
    the returned ``patch(target, name, value)``, and at teardown, also when
    the test fails.  So no memo entry built with a patch in place outlives
    the patch, and no entry built before a patch hides it."""

    def patch(target, name, value):
        monkeypatch.setattr(target, name, value)
        _clear_closed_form_memos()

    _clear_closed_form_memos()
    yield patch
    monkeypatch.undo()
    _clear_closed_form_memos()
