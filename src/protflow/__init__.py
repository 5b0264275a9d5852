"""Flow-matching generation of protein sequences in a smoothed, compressed
continuous latent space, plus an evaluation metric suite for generated
sequence sets.

Importing the package binds each library module below in sys.modules and as
an attribute of the package, but a module's code runs (and numpy loads) only
at its first attribute access (importlib.util.LazyLoader). So a CLI command
imports and compiles only the modules it calls, while code that patches
functions across the loaded package right after import, such as the span
tracer in perfbench/, still finds every module there.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY_MODULES = (
    "checkpoint",
    "config",
    "fileio",
    "flow",
    "kernels",
    "latent",
    "metrics",
    "multichain",
    "nn",
    "numeric",
    "ode",
    "seqio",
)


def _bind_lazily(name):
    full_name = f"{__name__}.{name}"
    spec = importlib.util.find_spec(full_name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _LAZY_MODULES:
    _bind_lazily(_name)
del _name
