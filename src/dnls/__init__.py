"""Damped, driven discrete nonlinear Schrodinger lattice: simulation and
executable checks of the dissipative-dynamics estimates (norm bounds,
absorbing ball, tail decay, contraction, attractor dimension, and the
unique periodic breather under strong damping)."""

from .breather import (BreatherSolution, find_breather, period_map,
                       verify_breather)
from .config import ScenarioConfig, load_config
from .diagnostics import (continuity_gap, contraction_rate,
                          correlation_dimension, poincare_points,
                          predict_absorbing, predict_tail, verify_absorbing,
                          verify_bounds, verify_tail)
from .driving import (Certificate, CosineLaw, DrivingField, DrivingSpec,
                      SpatialProfile, certificate, translate)
from .errors import DomainError, NonconvergenceError, StiffnessError
from .integrator import IntegratorConfig, Trajectory, integrate
from .lattice import (LatticeState, ModelParams, NonlinearitySpec, l2_norm,
                      random_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
