"""Damped, driven discrete nonlinear Schrodinger lattice: simulation and
executable checks of the dissipative-dynamics estimates (norm bounds,
absorbing ball, tail decay, contraction, attractor dimension, and the
unique periodic breather under strong damping)."""

from .breather import (BreatherSolution, find_breather, period_map,
                       verify_breather)
from .config import ScenarioConfig, dumps_config, load_config, loads_config
from .diagnostics import (AbsorbingPrediction, ContractionReport,
                          DimensionEstimate, TailPrediction,
                          check_apriori_bound, continuity_gap,
                          contraction_rate, correlation_dimension,
                          poincare_points, predict_absorbing, predict_tail,
                          verify_absorbing, verify_tail)
from .driving import (Certificate, ConstantLaw, DrivingField, DrivingSpec,
                      HarmonicSumLaw, PeriodicLaw, SpatialProfile,
                      certificate, sample_driving, translate)
from .errors import (DampingTooWeakError, DomainError, NonconvergenceError,
                     StiffnessError, StrongDampingError,
                     TruncationTooSmallError)
from .integrator import (IntegratorConfig, Trajectory, integrate,
                         monitor_dissipation, step)
from .lattice import (LatticeState, ModelParams, NonlinearitySpec,
                      apply_difference, apply_laplacian,
                      evaluate_nonlinearity, l2_norm, random_state, rhs,
                      tail_mass)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
