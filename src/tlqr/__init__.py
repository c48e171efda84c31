"""Trajectory-optimized LQR toolkit.

Plan an open-loop nominal trajectory for a nonlinear system, synthesize a
finite-horizon time-varying LQR tracking law around it, and verify the
small-noise behavior of the combined design: linear error propagation,
zero-mean first-order cost error, NMSE decay, and exponential exit-rate
scaling.

Names are imported from the module that defines them, for example
``from tlqr.planner import optimize_nominal``; importing the package loads
none of its modules.
"""
__version__ = "0.3.0"
