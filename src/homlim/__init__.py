"""Explicit homeomorphism stages of the cube with wild Sobolev limits.

The package constructs, evaluates, inverts and differentiates the stage
maps (nested-cube homeomorphisms, the tower relocation, tentacle
squeezing and stretching, and their compositions) and ships the numeric
instruments that probe their limits: Cauchy difference tables of the
Sobolev seminorm, Jacobian surveys, boundary checks, topological degree
and invertibility probes.
"""

from .cantor_map import CantorHomeomorphism
from .composite import (
    AxisCollapse,
    CompositeStage,
    ContinuumWitness,
    build_stage,
    continuum_witness,
)
from .geometry import (
    ParameterSchedule,
    cell_center,
    harmonic_schedule,
    limit_measure,
    stage_measure,
)
from .tentacles import (
    SqueezeStage,
    StretchStage,
    TentacleSchedule,
    solve_parameters,
    tentacle_seminorm_bound,
)
from .tower import TowerMapping, relocation_moves, slot_correspondence, verify_goodmap

__version__ = "0.1.0"
