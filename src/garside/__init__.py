"""Conjugacy in Garside groups of finite type via cyclic sliding.

The package is generic over a :class:`~garside.contract.GarsideContext`
describing a structure by its atoms and atom-division operations; the
Artin braid groups are provided as the concrete instance
(:func:`~garside.braid.braid_context`).
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
    arrows_at,
    circuit_of,
    enumerate_sc,
    iterated_pullback_to_repetition,
    naive_solve,
    solve_conjugacy,
    transport_cycle,
)
from .elements import (
    Element,
    atom_element,
    delta_power_element,
    identity_element,
    lcm_elements,
    normalize,
    positive_part,
    simple_element,
)
from .errors import (
    ContextMismatchError,
    GarsideError,
    InternalInvariantError,
    OracleSizeError,
)
from .sliding import (
    Trajectory,
    cyclic_sliding,
    minimal_sss_conjugator,
    preferred_prefix,
    preferred_suffix,
    pullback_step,
    slide_to_first_repetition,
    transport,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
