import importlib

import pytest

MODULES = [
    "halfline",
    "halfline.characterize",
    "halfline.cli",
    "halfline.forward",
    "halfline.marchenko",
    "halfline.model",
    "halfline.numkit",
    "halfline.potentials",
    "halfline.riemann",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must leave no stale entry behind in __all__
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
