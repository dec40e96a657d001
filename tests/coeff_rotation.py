"""so3 helpers shared by the tests: rotation of coefficient arrays, and
coupling tables kept for the test session."""
import functools
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


@functools.cache
def cg_table(l, k, J):
    """``so3.cg_table(l, k, J)``, read-only and kept: the package keeps no
    table, and the reference loops and table sweeps ask for the same ones
    many times."""
    table = so3.cg_table(l, k, J)
    table.setflags(write=False)
    return table
