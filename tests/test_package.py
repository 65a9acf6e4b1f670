import types

import ddetest


def test_all_lists_exactly_the_public_imports():
    # a name deleted from the package must leave __all__ too, and every
    # public name __init__ imports must be listed
    assert [name for name in ddetest.__all__ if not hasattr(ddetest, name)] == []
    public = {name for name, value in vars(ddetest).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(ddetest.__all__) - {"__version__"}
    assert len(ddetest.__all__) == len(set(ddetest.__all__))
