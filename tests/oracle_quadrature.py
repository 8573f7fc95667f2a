"""Independent oracle for the test-problem discretizations.

Recomputes selected matrix/solution entries straight from the underlying
integral-equation definitions — scalar midpoint evaluation for the
pointwise-quadrature kernels, adaptive scipy quadrature for the Galerkin
cell integrals — with no code shared with randgsvd.problems. Run manually:

    python3 tests/oracle_quadrature.py

The printed table is frozen into test_problems.py; the tests then compare
the generators against those constants, so a regression in either the
formulas or the vectorization shows up as a mismatch.

The *_whole functions are the other reference: the whole-matrix numpy
formulas of the kernels whose generators now fill A a block of rows at a
time. The tests hold those generators to them bit for bit.
"""

import math

import numpy as np
from scipy.integrate import dblquad, quad

N = 16
ENTRIES = [(0, 0), (3, 7), (12, 5), (15, 15)]
X_ENTRIES = [2, 9]


def shaw_entry(n, i, j):
    h = math.pi / n
    s = -math.pi / 2 + (i + 0.5) * h
    t = -math.pi / 2 + (j + 0.5) * h
    u = math.pi * (math.sin(s) + math.sin(t))
    frac = 1.0 if u == 0 else math.sin(u) / u
    return h * (math.cos(s) + math.cos(t)) ** 2 * frac**2


def shaw_x(n, i):
    t = -math.pi / 2 + (i + 0.5) * math.pi / n
    return 2 * math.exp(-6 * (t - 0.8) ** 2) + math.exp(-2 * (t + 0.5) ** 2)


def deriv2_entry(n, i, j):
    # Green's function of u'' with u(0)=u(1)=0: K(s,t) = s(t-1) if s<t else
    # t(s-1). The two branches are integrated separately so the quadrature
    # never straddles the derivative kink at s = t.
    h = 1.0 / n
    lo_s, hi_s = i * h, (i + 1) * h
    lo_t, hi_t = j * h, (j + 1) * h
    split = lambda s: min(max(s, lo_t), hi_t)
    above, _ = dblquad(
        lambda t, s: s * (t - 1.0), lo_s, hi_s, split, hi_t, epsabs=1e-14, epsrel=1e-13
    )
    below, _ = dblquad(
        lambda t, s: t * (s - 1.0), lo_s, hi_s, lo_t, split, epsabs=1e-14, epsrel=1e-13
    )
    return (above + below) / h  # orthonormal boxes: (h*h)^(-1/2) * integral


def deriv2_x(n, i):
    h = 1.0 / n
    val, _ = quad(lambda t: min(t, 1.0 - t), i * h, (i + 1) * h, epsabs=1e-13)
    return val / math.sqrt(h)


def foxgood_entry(n, i, j):
    h = 1.0 / n
    s = (i + 0.5) * h
    t = (j + 0.5) * h
    return h * math.sqrt(s * s + t * t)


def foxgood_x(n, i):
    return (i + 0.5) / n


def gravity_entry(n, i, j):
    h = 1.0 / n
    d = 0.25
    s = (i + 0.5) * h
    t = (j + 0.5) * h
    return h * d / (d * d + (s - t) ** 2) ** 1.5


def gravity_x(n, i):
    t = (i + 0.5) / n
    return math.sin(math.pi * t) + 0.5 * math.sin(2 * math.pi * t)


def heat_entry(n, i, j):
    # Volterra quadrature: A[i,j] = h/(2 sqrt(pi)) * k(t_{i-j+1}) for i >= j
    if i < j:
        return 0.0
    h = 1.0 / n
    tau = (i - j + 0.5) * h
    return h / (2 * math.sqrt(math.pi)) * tau**-1.5 * math.exp(-1.0 / (4 * tau))


def heat_x(n, i):
    ti = (i + 1) * 20.0 / n
    if i + 1 > n // 2:
        return 0.0
    if ti < 2:
        return 0.75 * ti * ti / 4
    if ti < 3:
        return 0.75 + (ti - 2) * (3 - ti)
    return 0.75 * math.exp(-(ti - 3) * 2)


def phillips_entry(n, i, j):
    # convolution kernel phi(s - t), phi(u) = 1 + cos(pi u / 3) on |u| < 3
    h = 12.0 / n

    def phi(u):
        return 1.0 + math.cos(math.pi * u / 3.0) if abs(u) < 3.0 else 0.0

    lo_s, lo_t = -6.0 + i * h, -6.0 + j * h
    val, _ = dblquad(
        lambda t, s: phi(s - t), lo_s, lo_s + h, lo_t, lo_t + h, epsabs=1e-12, epsrel=1e-12
    )
    return val / h


def phillips_x(n, i):
    h = 12.0 / n

    def phi(t):
        return 1.0 + math.cos(math.pi * t / 3.0) if abs(t) < 3.0 else 0.0

    val, _ = quad(lambda t: phi(t), -6.0 + i * h, -6.0 + (i + 1) * h, epsabs=1e-13)
    return val


def baart_entry(n, i, j):
    hs = math.pi / (2 * n)
    ht = math.pi / n
    val, _ = dblquad(
        lambda t, s: math.exp(s * math.cos(t)),
        i * hs,
        (i + 1) * hs,
        j * ht,
        (j + 1) * ht,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val / math.sqrt(hs * ht)


def baart_x(n, i):
    ht = math.pi / n
    val, _ = quad(math.sin, i * ht, (i + 1) * ht, epsabs=1e-13)
    return val / math.sqrt(ht)


def shaw_whole(n):
    """shaw's A and x_true, every entry of A formed at once."""
    h = np.pi / n
    g = -np.pi / 2 + (np.arange(n) + 0.5) * h
    s = g[:, None]
    t = g[None, :]
    u = np.pi * (np.sin(s) + np.sin(t))
    safe = np.where(u == 0.0, 1.0, u)
    sinc = np.where(u == 0.0, 1.0, np.sin(safe) / safe)
    a = h * (np.cos(s) + np.cos(t)) ** 2 * sinc**2
    x = 2.0 * np.exp(-6.0 * (g - 0.8) ** 2) + np.exp(-2.0 * (g + 0.5) ** 2)
    return a, x


def deriv2_whole(n):
    """deriv2's A and x_true: the lower triangle, mirrored, then the
    diagonal."""
    h = 1.0 / n
    idx = np.arange(1, n + 1, dtype=float)
    ii = idx[:, None]
    jj = idx[None, :]
    lower = h**2 * (jj - 0.5) * ((ii - 0.5) * h - 1.0)
    a = np.where(jj < ii, lower, 0.0)
    a = a + a.T
    np.fill_diagonal(a, h**2 * ((idx**2 - idx + 0.25) * h - (idx - 2.0 / 3.0)))
    x = h**1.5 * np.minimum(idx - 0.5, n - idx + 0.5)
    return a, x


def foxgood_whole(n):
    h = 1.0 / n
    g = (np.arange(n) + 0.5) * h
    return h * np.sqrt(g[:, None] ** 2 + g[None, :] ** 2), g


def gravity_whole(n):
    h = 1.0 / n
    d = 0.25
    g = (np.arange(n) + 0.5) * h
    a = h * d * (d**2 + (g[:, None] - g[None, :]) ** 2) ** (-1.5)
    return a, np.sin(np.pi * g) + 0.5 * np.sin(2.0 * np.pi * g)


def baart_whole(n):
    """baart's A and x_true from the (n, 4, n, 4) array of weighted
    values exp(s cos t) at every pair of Gauss nodes, summed over both node
    axes. The array is formed a few rows at a time, at most 16 MiB: each
    row of A sums its own (4, n, 4) slab, so the split leaves A unchanged.
    """
    nodes, weights = np.polynomial.legendre.leggauss(4)

    def cell_rule(width):
        left = width * np.arange(n)[:, None]
        points = left + width * (0.5 * (nodes[None, :] + 1.0))
        return points, np.broadcast_to(0.5 * width * weights, points.shape)

    hs = np.pi / (2 * n)
    ht = np.pi / n
    s_nodes, s_weights = cell_rule(hs)
    t_nodes, t_weights = cell_rule(ht)
    cos_t = np.cos(t_nodes)
    scale = 1.0 / np.sqrt(hs * ht)
    a = np.empty((n, n))
    chunk = max(1, (16 << 20) // (16 * n * 8))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = np.exp(s_nodes[start:stop, :, None, None] * cos_t[None, None, :, :])
        block = block * s_weights[start:stop, :, None, None] * t_weights[None, None, :, :]
        a[start:stop] = scale * block.sum(axis=(1, 3))
    t_left = ht * np.arange(n)
    x = (np.cos(t_left) - np.cos(t_left + ht)) / np.sqrt(ht)
    return a, x


ORACLES = {
    "shaw": (shaw_entry, shaw_x),
    "deriv2": (deriv2_entry, deriv2_x),
    "foxgood": (foxgood_entry, foxgood_x),
    "gravity": (gravity_entry, gravity_x),
    "heat": (heat_entry, heat_x),
    "phillips": (phillips_entry, phillips_x),
    "baart": (baart_entry, baart_x),
}


def main():
    print(f"# frozen from oracle_quadrature.py at n = {N}")
    print("PINNED = {")
    for name, (entry_fn, x_fn) in ORACLES.items():
        cells = {f"a{i}_{j}": entry_fn(N, i, j) for i, j in ENTRIES}
        cells.update({f"x{i}": x_fn(N, i) for i in X_ENTRIES})
        body = ", ".join(f"{k!r}: {v!r}" for k, v in cells.items())
        print(f"    {name!r}: {{{body}}},")
    print("}")


if __name__ == "__main__":
    main()
