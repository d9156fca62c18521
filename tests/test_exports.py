import dataclasses
import importlib
import inspect

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


def _defaults(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _settable_values() -> list[str]:
    """Every parameter with a default of a public function or method, and
    every dataclass field with a default, over the exported names (each
    object once, however many modules re-export it)."""
    seen, out = set(), []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                out += [f"{attr}({p})" for p in _defaults(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out += [
                        f"{attr}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.init and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
                    ]
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # classmethod / staticmethod
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out += [f"{attr}.{meth}({p})" for p in _defaults(fn)]
    return out


SETTABLE_VALUES = [
    "ConditionEntry.note",
    "InversionConfig.dx",
    "InversionConfig.force",
    "InversionConfig.x_max",
    "ScatteringData.bound_states",
    "ScatteringData.s_at_zero_sign",
    "check_symmetry_unitarity(tol)",
    "data_from_F(kgrid)",
    "data_from_kernel(kgrid)",
    "differentiate(stencil)",
    "forward(kgrid)",
    "integrate(rule)",
    "invert(config)",
    "invert_full(config)",
    "main(argv)",
    "parse_args(argv)",
    "pv_cauchy_grid(tail_coeff)",
    "quadrature_weights(rule)",
    "sech2_potential(depth)",
    "square_well_potential(depth)",
    "square_well_potential(width)",
]


def test_settable_values_count():
    # each new option must show up here: a change that adds, drops or
    # swaps one changes this list in its own diff
    assert len(SETTABLE_VALUES) == 21
    assert sorted(_settable_values()) == SETTABLE_VALUES
