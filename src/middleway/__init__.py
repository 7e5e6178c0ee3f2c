"""Cooperative speed-advisory driving stack and corridor simulation.

The Python API lives in the submodules (``middleway.controller``,
``middleway.simulation``, ``middleway.scenarios`` and so on); import from
them directly.
"""

__version__ = "0.1.0"
