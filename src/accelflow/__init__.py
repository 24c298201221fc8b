"""Accelerated optimization methods as feedback controls of a double integrator."""

__version__ = "0.1.0"
