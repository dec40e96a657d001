"""Rotation of coefficient arrays for the equivariance tests."""
import math

import numpy as np

from infgcn import so3


def rotate_coeffs(x, R):
    """Coefficients of the rotated function: the degree-l entries of the last
    axis, ``x[..., so3.block_slice(l)]``, times ``D_l^T``, so expanding the
    result at a point equals expanding ``x`` at ``R^-1`` times that point."""
    x = np.asarray(x, dtype=float)
    D = so3.wigner_blocks(math.isqrt(x.shape[-1]) - 1, R)
    out = np.empty_like(x)
    for l, d in enumerate(D):
        sl = so3.block_slice(l)
        out[..., sl] = x[..., sl] @ d.T
    return out
