"""Perturbation-probe OSNR estimation toolkit.

Synthesizes spectrally perturbed DP-QPSK waveforms, propagates them over
amplified multi-span fiber links, measures average PSDs through an emulated
OSA, and recovers OSNR by least-squares regression, exploiting that
nonlinear noise tracks the perturbation while ASE ignores it.
"""

__version__ = "0.1.0"
