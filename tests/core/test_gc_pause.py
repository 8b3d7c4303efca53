"""The cyclic-GC pause around bulk builds restores the caller's setting."""

import gc

import pytest

from repro.core._gc import gc_paused


@pytest.fixture
def gc_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_pauses_and_restores(gc_enabled):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_reenables_after_an_exception(gc_enabled):
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("build failed")
    assert gc.isenabled()


def test_nested_pause_lasts_until_the_outer_block_exits(gc_enabled):
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_leaves_a_callers_disabled_gc_disabled(gc_enabled):
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("build failed")
    assert not gc.isenabled()
