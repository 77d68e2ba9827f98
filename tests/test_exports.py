import types

import maxent


def test_all_lists_exactly_the_public_names_of_the_package():
    exported = maxent.__all__
    assert exported == sorted(exported) and len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(maxent, name) is not None
    bound = {
        name
        for name, value in vars(maxent).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound
