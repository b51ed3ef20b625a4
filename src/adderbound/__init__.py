"""Bounds and exact combinatorics for the zero-error binary adder channel.

The package splits into entropy primitives (entropy), the optimized rate
bounds (bounds), set-family combinatorics (families), union-free systems
(systems), auxiliary joints and their envelopes (distributions), seeded
self-checks (verify), and a small CLI (cli). Every public name of the first
six, declared once in its module's __all__, is re-exported here; the name
``entropy`` is the Shannon entropy function, not the module. Every public
numeric argument is read on entry by one reader per kind (_integer, _real,
_as_prob, _as_prob_array), all in the entropy module.
"""

from . import bounds, distributions, entropy, families, systems, verify

__version__ = "0.1.0"

__all__: list = []
__all__ += bounds.__all__
__all__ += distributions.__all__
__all__ += entropy.__all__
__all__ += families.__all__
__all__ += systems.__all__
__all__ += verify.__all__
__all__.sort()

from .bounds import *  # noqa: E402, F403
from .distributions import *  # noqa: E402, F403
from .entropy import *  # noqa: E402, F403  (binds `entropy` to the function)
from .families import *  # noqa: E402, F403
from .systems import *  # noqa: E402, F403
from .verify import *  # noqa: E402, F403
