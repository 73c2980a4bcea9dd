"""Attribution-sparseness toolkit.

Trains linear and small MLP classifiers under natural, l1-regularized,
stable-attribution, and worst-case (l-infinity adversarial) regimes; computes
integrated-gradients attributions with an exact closed form for linear models;
measures attribution sparseness with the Gini index; and checks the governing
guarantees by Monte-Carlo and exact algebra.
"""
from ._version import __version__

__all__ = ["__version__"]
