import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from multiorder import tiling

BUILTIN_NAMES = ["dyadic_standard", "dyadic_alternating", "hilbert"]


@pytest.fixture(scope="session")
def builtins():
    return {name: tiling.builtin(name) for name in BUILTIN_NAMES}


@pytest.fixture(autouse=True)
def shared_builtins_stay_unpatched():
    """Fail the test that leaves a patched shape or rule function on a shared
    built-in spec, rather than the later tests that would read it."""
    yield
    leaked = []
    for name in BUILTIN_NAMES:
        shared, fresh = tiling._shared_builtin(name), tiling._new_builtin(name)
        for attr in ("_shapes_fn", "_rules_fn"):
            # Closures made by one builder share its code object.
            if getattr(getattr(shared, attr), "__code__", None) is not getattr(fresh, attr).__code__:
                leaked.append(f"{name}.{attr}")
    if leaked:
        tiling._shared_builtin.cache_clear()  # later tests get unpatched specs
        pytest.fail(f"left patched on a shared built-in spec: {leaked}")


@pytest.fixture(scope="session")
def data_dir():
    return Path(__file__).parent / "data"
