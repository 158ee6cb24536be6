import importlib

import pytest

import margulis.frames
import margulis.spectrum
import margulis.walk


@pytest.mark.parametrize("module", ["margulis", "margulis.walk", "margulis.spectrum",
                                    "margulis.frames", "margulis.phasespace",
                                    "margulis.channel", "margulis.circuits",
                                    "margulis.continuous"])
def test_every_exported_name_exists(module):
    # A stale __all__ entry breaks `from module import *` with an AttributeError.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name, home", [
    ("walk_matrix", margulis.walk), ("walk_step", margulis.walk),
    ("spectral_report", margulis.spectrum), ("grid_to_csv", margulis.frames),
    ("grid_from_csv", margulis.frames), ("grid_to_pgm", margulis.frames)])
def test_names_the_benchmark_resolves_on_walk_are_their_homes(name, home):
    # perfbench/tracing.py looks these up on margulis.walk; each must be the
    # function of its home module, not a copy a patch there would miss.
    assert getattr(margulis.walk, name) is getattr(home, name)
