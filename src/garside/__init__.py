"""Conjugacy in Garside groups of finite type via cyclic sliding.

The package is generic over a :class:`~garside.contract.GarsideContext`
describing a structure by its atoms and atom-division operations; the
Artin braid groups are provided as the concrete instance
(:func:`~garside.braid.braid_context`).

The package exports what a user calls; solver internals (transports,
pullbacks, arrows, element constructors, the brute-force reference) are
imported from their modules.
"""

from types import ModuleType as _ModuleType

from .braid import (
    BraidContext,
    BraidWord,
    WordParseError,
    braid_context,
    element_from_word,
    parse_word,
    word_from_element,
)
from .contract import Atom, GarsideContext, RunStats, Simple
from .conjugacy import (
    Circuit,
    ConjugacyResult,
    SCGraph,
    circuit_of,
    enumerate_sc,
    solve_conjugacy,
)
from .elements import Element, normalize
from .errors import (
    ContextMismatchError,
    GarsideError,
    InternalInvariantError,
    OracleSizeError,
)
from .sliding import (
    Trajectory,
    cyclic_sliding,
    preferred_prefix,
    slide_to_first_repetition,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
