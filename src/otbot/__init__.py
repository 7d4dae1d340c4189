"""Modelling, identification and tracking control for a pivot-driven
omnidirectional robot.

The geometry lives in :mod:`otbot.model`, the constrained equations of
motion in :mod:`otbot.dynamics`, rollouts in :mod:`otbot.simulate`,
grey-box fitting in :mod:`otbot.identify` and the computed-torque
tracking layer in :mod:`otbot.control`. ``otbot.cli`` fronts all of it.
"""

__version__ = "0.1.0"

from .params import RobotParams, load_params, nominal_params
from .dynamics import RobotState, inverse_dynamics, forward_dynamics, state_derivative
from .model import constraint_jacobian, fik_matrix, iik_matrix, lambda_delta
from .simulate import ControlSequence, SimTrajectory, simulate_robot, simulate_shaft
from .identify import FITS, run_pipeline
from .control import Gains, tune_gains, computed_torque, closed_loop_simulate

__all__ = [
    "__version__",
    "RobotParams",
    "RobotState",
    "load_params",
    "nominal_params",
    "constraint_jacobian",
    "fik_matrix",
    "iik_matrix",
    "lambda_delta",
    "inverse_dynamics",
    "forward_dynamics",
    "state_derivative",
    "ControlSequence",
    "SimTrajectory",
    "simulate_robot",
    "simulate_shaft",
    "FITS",
    "run_pipeline",
    "Gains",
    "tune_gains",
    "computed_torque",
    "closed_loop_simulate",
]
