"""Gait friction-force capture, impulse-preserving envelope compilation,
and deterministic 1 kHz haptic rendering.

``import hapstep`` loads no submodule; each name is imported from the
module that defines it, e.g. ``from hapstep.renderer import Renderer``.
"""

__version__ = "0.1.0"
