"""An orientation-reversing, fixed-point-free plane homeomorphism all of
whose orbits are bounded, built layer by layer: exact piecewise-linear
dynamics on a square, a big-float collapse of that square onto itself
that pinches the boundary into two slits, and a tangent chart blowing the
result up to the whole plane.  Exact layers use rational arithmetic end
to end; chart layers run at a configurable binary precision."""

from .numerics import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCES,
    DomainError,
    PLFunction,
    SlitError,
    Tolerances,
    make_context,
)
from .strips import split_height, shear_bound, strip_locate, strip_table
from .square_map import (
    NAMED_POINTS,
    descend_map,
    reflect,
    rise_map,
    shear_profile,
    square_homeo,
    strip_shear,
    vertical_shift,
)
from .collapse_map import collapse, collapse_inv
from .plane_map import (
    example_shift_reflection,
    lifted_core,
    plane_homeo,
    quotient_square_map,
    tangent_chart,
)
from .dynamics import (
    Certificate,
    boundedness_certificate,
    ladder_witness,
    limit_estimate,
    map_registry,
    orbit,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION",
    "DEFAULT_TOLERANCES",
    "DomainError",
    "PLFunction",
    "SlitError",
    "Tolerances",
    "make_context",
    "split_height",
    "shear_bound",
    "strip_locate",
    "strip_table",
    "NAMED_POINTS",
    "descend_map",
    "reflect",
    "rise_map",
    "shear_profile",
    "square_homeo",
    "strip_shear",
    "vertical_shift",
    "collapse",
    "collapse_inv",
    "example_shift_reflection",
    "lifted_core",
    "plane_homeo",
    "quotient_square_map",
    "tangent_chart",
    "Certificate",
    "boundedness_certificate",
    "ladder_witness",
    "limit_estimate",
    "map_registry",
    "orbit",
    "run_suite",
    "__version__",
]
