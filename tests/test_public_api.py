"""The package exports exactly what its modules declare public."""

import inspect

import dhj
from dhj import core, hj_flow, hj_vf, mechanics, optctrl


def test_package_names_are_the_union_of_the_module_exports():
    # a name dropped from a module's __all__ but still imported into dhj, or
    # the reverse, fails here
    declared = set().union(*(m.__all__ for m in (core, mechanics, hj_flow, hj_vf, optctrl)))
    exported = {name for name, value in vars(dhj).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == declared
