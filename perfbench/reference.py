"""A fixed reference computation that measures the host's current speed.

On a shared 2-vCPU x86-64 virtual machine (other tenants on the host),
the same op varies by about 15% between 5-second stretches, in phases that
last from seconds to minutes. A fixed computation timed right before and after an op
slows down with it. Dividing the op's time by the reference time, and
multiplying by ``NOMINAL_S``, gives the op's time at a fixed nominal host
speed; that cancels most of the drift (measured: 5-second medians within
about 5% instead of 15%).

The kernel mixes interpreter work, small matrix products with a ufunc, and
batched einsum, as the package's own code does. It does not use the
package, so a change to the package cannot change it.
"""

import statistics
import threading
import time

import numpy as np

# Reference time that defines "nominal" speed; about the kernel's median
# time on a quiet 2-vCPU x86-64 virtual machine (OpenBLAS on one thread).
NOMINAL_S = 0.01

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((96, 96)) / 10
_B = _RNG.standard_normal((64, 9, 16))
_C = _RNG.standard_normal((64, 16, 9))


def _kernel():
    s = 0
    for i in range(24000):
        s += i * i % 7
    x = _A
    for _ in range(80):
        x = np.tanh(_A @ x)
    for _ in range(40):
        np.einsum("eab,ebc->eac", _B, _C)
    return s


REPEATS = 5


def sample(threads=1):
    """Median, over ``REPEATS`` runs, of the wall time of ``threads`` threads
    each running the kernel once at the same time, in seconds. Use the
    thread count of the op being normalised: an op that keeps both
    hardware threads of a core busy sees other tenants' load differently
    from a single-threaded one."""
    times = []
    for _ in range(REPEATS):
        workers = [threading.Thread(target=_kernel)
                   for _ in range(threads - 1)]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        _kernel()
        for w in workers:
            w.join()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
