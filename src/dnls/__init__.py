"""Damped, driven discrete nonlinear Schrodinger lattice: simulation and
executable checks of the dissipative-dynamics estimates (norm bounds,
absorbing ball, tail decay, contraction, attractor dimension, and the
unique periodic breather under strong damping)."""

from .breather import (BreatherSolution, find_breather, period_map,
                       verify_breather)
from .config import ScenarioConfig, load_config
from .diagnostics import (AbsorbingPrediction, ContractionReport,
                          DimensionEstimate, TailPrediction,
                          check_apriori_bound, continuity_gap,
                          contraction_rate, correlation_dimension,
                          poincare_points, predict_absorbing, predict_tail,
                          verify_absorbing, verify_tail)
from .driving import (Certificate, ConstantLaw, DrivingField, DrivingSpec,
                      HarmonicSumLaw, PeriodicLaw, SpatialProfile,
                      certificate, translate)
from .errors import (DampingTooWeakError, DomainError, NonconvergenceError,
                     StiffnessError, StrongDampingError,
                     TruncationTooSmallError)
from .integrator import (IntegratorConfig, Trajectory, integrate,
                         monitor_dissipation)
from .lattice import (LatticeState, ModelParams, NonlinearitySpec, l2_norm,
                      random_state, tail_mass)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
