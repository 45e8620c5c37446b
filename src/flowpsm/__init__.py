"""Physics-informed state-space surrogate toolkit for 1D fluid transport.

Subpackages cover the full workflow: a finite-volume reference solver that
generates sensor corpora and serves as the control environment, an MLP with
closed-form value, tangent and gradient passes used to train
physics-informed surrogates, linear state-space extraction with constraint
governors on top of the trained model, and residual-based fault diagnostics.
"""

__version__ = "0.1.0"
