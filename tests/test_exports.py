import importlib

import pytest


@pytest.mark.parametrize("module", ["margulis", "margulis.walk", "margulis.phasespace",
                                    "margulis.channel", "margulis.circuits",
                                    "margulis.continuous"])
def test_every_exported_name_exists(module):
    # A stale __all__ entry breaks `from module import *` with an AttributeError.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
