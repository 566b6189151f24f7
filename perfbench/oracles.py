"""Reference computations that share no code with gcsov.

* The theta function as the product of two q-Pochhammer symbols from mpmath,
  theta(z) = (z; q)_inf (q/z; q)_inf, evaluated at 40 digits directly at z
  (no reduction to the fundamental annulus, no fixed truncation).  Its
  logarithmic derivative and the Weierstrass-type function come from central
  differences in ln z with step 1e-10, whose error is ~1e-20 at that precision.
* The rational Gaudin Hamiltonians built from the standard spin matrices with
  ``numpy.kron``, L_a = 4 sum_{b != a} S_a . S_b / (z_a - z_b), restricted to
  the singlet space, the null space of the total spin squared.
* The multiplicity of total spin 0 in a tensor product of spins, by
  Clebsch-Gordan counting.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 40
_H = mp.mpf("1e-10")


# ------------------------------------------------------------------ theta


def theta(z, q) -> complex:
    with mp.workdps(DPS):
        z, q = mp.mpc(z), mp.mpc(q)
        return complex(mp.qp(z, q) * mp.qp(q / z, q))


def theta_family(z, q):
    """(theta, z theta'/theta, -(z d/dz)^2 ln theta) at z."""
    with mp.workdps(DPS):
        z, q = mp.mpc(z), mp.mpc(q)

        def th(x):
            return mp.qp(x, q) * mp.qp(q / x, q)

        g0 = th(z)
        gp = th(z * mp.exp(_H))
        gm = th(z * mp.exp(-_H))
        ld = (gp - gm) / (2 * _H) / g0
        wp = -((gp - 2 * g0 + gm) / (_H * _H) / g0 - ld * ld)
        return complex(g0), complex(ld), complex(wp)


def lattice_distance(x, q) -> float:
    """min_n |Log(x q^-n)|: multiplicative distance from x to q^Z."""
    x, q = complex(x), complex(q)
    n0 = math.floor(math.log(abs(x)) / math.log(abs(q)))
    return min(abs(cmath.log(x * q ** (-n))) for n in (n0 - 1, n0, n0 + 1, n0 + 2))


# ---------------------------------------------------------------- rational


def spin_matrices(j: Fraction):
    """(Sx, Sy, Sz) of spin j in the basis m = j, j-1, ..., -j."""
    dim = int(2 * j) + 1
    m = [float(j) - k for k in range(dim)]
    sp = np.zeros((dim, dim))
    for k in range(1, dim):
        # S+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>
        sp[k - 1, k] = math.sqrt(float(j) * (float(j) + 1) - m[k] * (m[k] + 1))
    sm = sp.T
    return (sp + sm) / 2, (sp - sm) / 2j, np.diag(m).astype(complex)


def _embed(mat, site, dims):
    out = np.eye(1)
    for k, d in enumerate(dims):
        out = np.kron(out, mat if k == site else np.eye(d))
    return out


def spins_of(lams):
    return [Fraction(round(-2 * float(l)), 2) for l in lams]


def gaudin_hamiltonians(z, lams):
    spins = spins_of(lams)
    dims = [int(2 * j) + 1 for j in spins]
    S = [[_embed(s, a, dims) for s in spin_matrices(j)] for a, j in enumerate(spins)]
    n = len(z)
    Ls = []
    for a in range(n):
        L = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
        for b in range(n):
            if b != a:
                dot = sum(S[a][k] @ S[b][k] for k in range(3))
                L += 4.0 * dot / (z[a] - z[b])
        Ls.append(L)
    return Ls, S


def singlet_tuples(z, lams, seed=0):
    """Joint eigenvalue tuples of the Hamiltonians on the singlet space."""
    Ls, S = gaudin_hamiltonians(z, lams)
    tot = [sum(S[a][k] for a in range(len(z))) for k in range(3)]
    c2 = sum(t.conj().T @ t for t in tot)
    w, V = np.linalg.eigh(c2)
    Q = V[:, w < 1e-8]
    if Q.shape[1] == 0:
        return []
    Lr = [Q.conj().T @ L @ Q for L in Ls]
    c = np.random.default_rng(seed).standard_normal(len(z))
    _, vecs = np.linalg.eig(sum(ci * L for ci, L in zip(c, Lr)))
    out = []
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        out.append(tuple(complex(v.conj() @ L @ v / (v.conj() @ v)) for L in Lr))
    return out


def singlet_multiplicity(lams) -> int:
    """Number of spin-0 copies in the tensor product, by Clebsch-Gordan."""
    mult = {Fraction(0): 1}
    for j in spins_of(lams):
        nxt = {}
        for J, count in mult.items():
            k = abs(J - j)
            while k <= J + j:
                nxt[k] = nxt.get(k, 0) + count
                k += 1
        mult = nxt
    return mult.get(Fraction(0), 0)
