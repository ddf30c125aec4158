"""The package's public names are its modules' ``__all__``s, declared once
in each module and re-exported as they are."""

import dcboost
from dcboost import dc_core, imaging, toy_problems, tv_cauchy

MODULES = (dc_core, imaging, toy_problems, tv_cauchy)


def test_package_all_is_the_modules_all_in_order():
    assert dcboost.__all__ == [name for module in MODULES
                               for name in module.__all__]
    assert len(set(dcboost.__all__)) == len(dcboost.__all__)


def test_each_exported_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dcboost, name) is getattr(module, name), name
