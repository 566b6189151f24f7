"""Gaudin Hamiltonians: rational matrices and elliptic current operators.

Rational case: each site carries the finite-dimensional sl(2) module realized
on polynomials in t_alpha,

    e = t^2 d/dt + 2*lam*t,   f = -d/dt,   h = 2(t d/dt + lam),

with -2*lam a nonnegative integer (dim = -2*lam + 1).  The Hamiltonians are
the residues L_alpha = 2 sum_{beta != alpha} Omega_{alpha beta}/(z_alpha -
z_beta) of the quadratic current density, acting on the tensor product.

Elliptic case: the currents live on the (N+1)-variable space (tsq, t_1..t_N),
tsq being the square of the extra torus coordinate.  Kernel coefficients use
the normalized theta ratio from special_functions, whose two-point product law
is exact; with the raw ratio every quadratic identity picks up a factor
phi(q)^4 and the double-pole coefficients of the density stop being the bare
Casimir constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .operators import (
    ConstCoef,
    DifferentialOperator,
    FuncCoef,
    Monomial,
    ProdCoef,
    SumCoef,
    VerificationReport,
    axis_index,
    axis_monomial,
    eval_terms,
    make_op,
    op_apply,
    op_commutator,
    op_compose,
)
from .special_functions import (
    EllipticParams,
    _log_deriv_and_wp,
    _mult_dist_to_lattice,
    normalized_lame_kernel,
    theta_log_deriv,
    weierstrass_p,
)


class GaudinModelError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("model violates: " + ", ".join(self.violations))


class RepresentationError(ValueError):
    pass


class DimensionCapError(ValueError):
    pass


# ------------------------------------------------------------------- sl2 reps


@dataclass(frozen=True)
class Sl2Rep:
    lam: float
    dim: int
    e: np.ndarray
    f: np.ndarray
    h: np.ndarray


def sl2_rep(lam) -> Sl2Rep:
    """Finite-dimensional module on {1, t, ..., t^(-2 lam)}.

    f(t^k) = -k t^(k-1), h(t^k) = 2(k+lam) t^k, e(t^k) = (k+2 lam) t^(k+1).
    """
    n2 = -2 * complex(lam)
    if abs(n2.imag) > 1e-9 or abs(n2.real - round(n2.real)) > 1e-9 or round(n2.real) < 0:
        raise RepresentationError(f"need -2*lam a nonnegative integer, got lam={lam}")
    lam = complex(lam).real
    dim = int(round(n2.real)) + 1
    e = np.zeros((dim, dim), dtype=complex)
    f = np.zeros((dim, dim), dtype=complex)
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        h[k, k] = 2 * (k + lam)
        if k + 1 < dim:
            e[k + 1, k] = k + 2 * lam
        if k >= 1:
            f[k - 1, k] = -k
    return Sl2Rep(lam, dim, e, f, h)


# --------------------------------------------------------------------- models


@dataclass(frozen=True)
class EllipticData:
    q: complex
    k: int = 0
    mu0: Optional[complex] = None


@dataclass(frozen=True)
class GaudinModel:
    z: Tuple[complex, ...]
    lam: Tuple[complex, ...]
    mu: Optional[Tuple[complex, ...]] = None
    elliptic: Optional[EllipticData] = None

    @property
    def N(self) -> int:
        return len(self.z)

    @property
    def is_elliptic(self) -> bool:
        return self.elliptic is not None


def make_model(z, lam, mu=None, q=None, k=0, mu0=None) -> GaudinModel:
    ell = None
    if q is not None:
        ell = EllipticData(complex(q), int(k), None if mu0 is None else complex(mu0))
    return GaudinModel(
        tuple(complex(v) for v in z),
        tuple(complex(v) for v in lam),
        None if mu is None else tuple(complex(v) for v in mu),
        ell,
    )


MU_RULES = ("mu_sum_rule", "mu_moment1_rule", "mu_moment2_rule")


def mu_constraints(z, lam):
    """The three linear rules on an admissible mu as A mu = b.

    Rows 1, z, z^2; right-hand side 0, -sum 2 lam(lam-1), -sum 4 lam(lam-1) z.
    """
    z, lam = np.asarray(z), np.asarray(lam)
    c = 2 * lam * (lam - 1)
    A = np.vstack([np.ones(len(z)), z, z**2])
    return A, np.array([0.0, -c.sum(), -(2 * c * z).sum()])


def mu_residuals(mu, z, lam) -> np.ndarray:
    """A mu - b for the MU_RULES, row by row."""
    A, b = mu_constraints(z, lam)
    return (np.asarray(mu) * A).sum(axis=1) - b


def non_finite_entries(m: GaudinModel) -> list:
    """Names of the model values that are NaN or infinite, e.g. ["z[2]", "q"]."""
    named = [(f"z[{i}]", v) for i, v in enumerate(m.z)]
    named += [(f"lambda[{i}]", v) for i, v in enumerate(m.lam)]
    named += [(f"mu[{i}]", v) for i, v in enumerate(m.mu or ())]
    if m.is_elliptic:
        named += [("q", m.elliptic.q), ("mu0", m.elliptic.mu0)]
    return [name for name, v in named if v is not None and not cmath.isfinite(v)]


#: Smallest admissible |q|: the special functions' lattice guard takes the log
#: of q times a point of |q| < |z| <= 1, which is as small as |q|^2 and must
#: stay a normal float.
NOME_FLOOR = math.sqrt(np.finfo(float).tiny)


def model_violations(m: GaudinModel, tol: float = 1e-8) -> list:
    """Named invariant violations; empty list means the model is admissible.

    A model with a NaN or infinite value gets non_finite and no value check.
    """
    out = []
    if len(m.z) != len(m.lam):
        out.append("length_mismatch")
    if m.N < 2:
        out.append("too_few_sites")
    if m.mu is not None and len(m.mu) != len(m.z):
        out.append("length_mismatch")
    if non_finite_entries(m):
        return sorted(set(out + ["non_finite"]))

    if not m.is_elliptic:
        scale = max((abs(a) for a in m.z), default=1.0) or 1.0
        for i in range(m.N):
            for j in range(i + 1, m.N):
                if abs(m.z[i] - m.z[j]) <= tol * scale:
                    out.append("sites_not_distinct")
                    break
        if m.mu is not None and "length_mismatch" not in out:
            out.extend(name for name, v in zip(MU_RULES, mu_residuals(m.mu, m.z, m.lam))
                       if abs(v) > tol)
    else:
        q = m.elliptic.q
        if not NOME_FLOOR <= abs(q) < 1:
            out.append("bad_nome")
        if any(zv == 0 for zv in m.z):
            out.append("zero_site")
        elif "bad_nome" not in out:
            p = EllipticParams(q=q)
            for i in range(m.N):
                for j in range(i + 1, m.N):
                    if _mult_dist_to_lattice(m.z[i] / m.z[j], p) <= tol:
                        out.append("sites_not_distinct_mod_q")
                        break
        if m.mu is not None and "length_mismatch" not in out:
            if abs(mu_residuals(m.mu, m.z, m.lam)[0]) > tol:
                out.append("mu_sum_rule")
    return sorted(set(out))


def validate_model(m: GaudinModel, tol: float = 1e-8) -> None:
    bad = model_violations(m, tol)
    if bad:
        raise GaudinModelError(bad)


# ----------------------------------------------------------- rational matrices


def tensor_dim(m: GaudinModel) -> int:
    d = 1
    for lam in m.lam:
        d *= sl2_rep(lam).dim
    return d


def _embed(mat, site, dims):
    out = np.array([[1.0 + 0.0j]])
    for j, d in enumerate(dims):
        out = np.kron(out, mat if j == site else np.eye(d))
    return out


def site_matrices(m: GaudinModel):
    """Per-site e, f, h acting on the full tensor product."""
    reps = [sl2_rep(l) for l in m.lam]
    dims = [r.dim for r in reps]
    es = [_embed(r.e, i, dims) for i, r in enumerate(reps)]
    fs = [_embed(r.f, i, dims) for i, r in enumerate(reps)]
    hs = [_embed(r.h, i, dims) for i, r in enumerate(reps)]
    return es, fs, hs


def _pair_omega(reps, a, b):
    """Omega_ab = e_a f_b + f_a e_b + h_a h_b / 2 on the tensor product, a < b.

    Built from the two local factors by kron with identities on the other
    sites: O(d^2) work and no matrix product.
    """
    dims = [r.dim for r in reps]
    ra, rb = reps[a], reps[b]
    mid = np.eye(math.prod(dims[a + 1:b]))
    local = np.kron(np.kron(ra.e, mid), rb.f) + np.kron(np.kron(ra.f, mid), rb.e) \
        + 0.5 * np.kron(np.kron(ra.h, mid), rb.h)
    return np.kron(np.kron(np.eye(math.prod(dims[:a])), local), np.eye(math.prod(dims[b + 1:])))


def rational_hamiltonians(m: GaudinModel):
    """L_alpha = 2 sum_{beta != alpha} Omega_{ab}/(z_a - z_b) on the tensor product.

    Each Omega_ab is built once per pair a < b and added in place into L_a and
    L_b, so every L_alpha accumulates its terms in increasing beta order.
    """
    validate_model(m)
    reps = [sl2_rep(l) for l in m.lam]
    d = tensor_dim(m)
    Ls = [np.zeros((d, d), dtype=complex) for _ in range(m.N)]
    for a in range(m.N):
        for b in range(a + 1, m.N):
            omega2 = 2.0 * _pair_omega(reps, a, b)
            Ls[a] += omega2 / (m.z[a] - m.z[b])
            Ls[b] += omega2 / (m.z[b] - m.z[a])
    return Ls


@dataclass(frozen=True)
class SpectrumResult:
    sector: str
    eigen_tuples: Tuple[Tuple[complex, ...], ...]
    eigen_vectors: np.ndarray  # columns, unit norm, in the full tensor basis
    residuals: Tuple[float, ...]
    ill_conditioned: bool = False


def joint_spectrum(m: GaudinModel, tol: float = 1e-8, seed: int = 0,
                   dim_cap: int = 4096) -> SpectrumResult:
    """Joint eigenvalue tuples of {L_alpha} on the singlet sector.

    Singlets are the vectors annihilated by the global e, f, h; on that
    subspace one generic random combination sum c_a L_a is diagonalized by
    np.linalg.eig (LAPACK geev) and the tuples read off as Rayleigh quotients,
    with per-tuple residuals.  Each eigenvector is normalised and its phase
    fixed on its largest full-basis entry.
    """
    d = tensor_dim(m)
    if d > dim_cap:
        raise DimensionCapError(f"tensor dimension {d} exceeds cap {dim_cap}")
    es, fs, hs = site_matrices(m)
    E, F, H = sum(es), sum(fs), sum(hs)
    # singlets = null space of the PSD form E*E + F*F + H*H
    M = E.conj().T @ E + F.conj().T @ F + H.conj().T @ H
    w, V = np.linalg.eigh(M)
    Q = V[:, w < 1e-8 * max(1.0, w[-1])]
    if Q.shape[1] == 0:
        return SpectrumResult("singlet,weight=0", (), np.zeros((d, 0), dtype=complex), ())

    Ls = rational_hamiltonians(m)
    Lres = [Q.conj().T @ L @ Q for L in Ls]
    rng = np.random.default_rng(seed)
    c = rng.normal(size=m.N)
    _, vecs = np.linalg.eig(sum(ci * Li for ci, Li in zip(c, Lres)))

    tuples, residuals, cols = [], [], []
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        v = v / np.linalg.norm(v)
        mu = tuple(complex(v.conj() @ Li @ v) for Li in Lres)
        res = max(float(np.linalg.norm(Li @ v - mui * v)) for Li, mui in zip(Lres, mu))
        full = Q @ v
        j = int(np.argmax(np.abs(full)))
        full = full * (abs(full[j]) / full[j])  # fix overall phase
        tuples.append(mu)
        residuals.append(res)
        cols.append(full)

    order = sorted(range(len(tuples)),
                   key=lambda i: tuple((round(x.real, 9), round(x.imag, 9)) for x in tuples[i]))
    tuples = [tuples[i] for i in order]
    residuals = [residuals[i] for i in order]
    vecs_full = np.array([cols[i] for i in order]).T if cols else np.zeros((d, 0))
    return SpectrumResult(
        sector="singlet,weight=0",
        eigen_tuples=tuple(tuples),
        eigen_vectors=vecs_full,
        residuals=tuple(residuals),
        ill_conditioned=any(r > tol for r in residuals),
    )


def check_linear_relations(s: SpectrumResult, m: GaudinModel,
                           tol: float = 1e-10) -> VerificationReport:
    """Three scalar constraints on every singlet tuple.

    sum mu = 0; sum mu z + sum 2 lam(lam-1) = 0; sum mu z^2 + sum 4 lam(lam-1) z = 0.
    """
    worst = 0.0
    for mu in s.eigen_tuples:
        worst = max(worst, float(np.abs(mu_residuals(mu, m.z, m.lam)).max()))
    return VerificationReport("singlet-tuple-constraints", 3 * len(s.eigen_tuples),
                              float(worst), tol, seed=0,
                              anchor="eigenvalue sum rules for the rational Hamiltonians")


def rational_matrix_reports(m: GaudinModel, tol: float = 1e-10) -> list:
    """Matrix-identity checks: commutativity, zero sum, and the two moment identities."""
    Ls = rational_hamiltonians(m)
    es, fs, hs = site_matrices(m)
    E, F, H = sum(es), sum(fs), sum(hs)
    E1 = sum(zi * ei for zi, ei in zip(m.z, es))
    F1 = sum(zi * fi for zi, fi in zip(m.z, fs))
    H1 = sum(zi * hi for zi, hi in zip(m.z, hs))
    _, rhs = mu_constraints(m.z, m.lam)
    eye = np.eye(Ls[0].shape[0])

    comm = 0.0
    n_pairs = 0
    for a in range(m.N):
        for b in range(a + 1, m.N):
            comm = max(comm, float(np.abs(Ls[a] @ Ls[b] - Ls[b] @ Ls[a]).max()))
            n_pairs += 1

    sum_zero = float(np.abs(sum(Ls)).max())

    m1 = sum(zi * L for zi, L in zip(m.z, Ls)) - rhs[1] * eye \
        - (E @ F + F @ E + 0.5 * (H @ H))
    m2 = sum(zi**2 * L for zi, L in zip(m.z, Ls)) - rhs[2] * eye \
        - 2.0 * (E1 @ F + F1 @ E + 0.5 * (H1 @ H))

    mk = lambda label, val, anchor: VerificationReport(label, n_pairs or 1, val, tol, 0, anchor)
    return [
        mk("pairwise-commutators", comm, "commuting family of rational Hamiltonians"),
        mk("sum-of-hamiltonians-zero", sum_zero, "translation sum rule"),
        mk("first-moment-identity", float(np.abs(m1).max()), "z-weighted sum vs global Casimir"),
        mk("second-moment-identity", float(np.abs(m2).max()), "z^2-weighted sum vs shifted Casimir"),
    ]


# ------------------------------------------------------------ elliptic currents


def elliptic_vars(m: GaudinModel) -> Tuple[str, ...]:
    return ("tsq",) + tuple(f"t_{a + 1}" for a in range(m.N))


def _params(m: GaudinModel) -> EllipticParams:
    return EllipticParams(q=m.elliptic.q)


def _kernel_coef(zratio, p, nvars, inverse):
    """Kernel coefficient of tsq with exact first/second tsq-partials.

    value(t) = Kn(x, zratio) with x = 1/t (e side) or x = t (f side);
    d/dx ln Kn(x, y) = (tdot(x y) - tdot(x))/x with tdot the theta log-derivative.
    """

    def g(x):
        return (theta_log_deriv(x * zratio, p) - theta_log_deriv(x, p)) / x

    def gp(x):
        return (weierstrass_p(x, p) - weierstrass_p(x * zratio, p)) / x**2 - g(x) / x

    if inverse:
        val = lambda t: normalized_lame_kernel(1.0 / t, zratio, p)
        chain = lambda t: -g(1.0 / t) / t**2
        chain_p = lambda t: gp(1.0 / t) / t**4 + 2.0 * g(1.0 / t) / t**3
    else:
        val = lambda t: normalized_lame_kernel(t, zratio, p)
        chain = g
        chain_p = gp

    zeros = (ConstCoef(0.0),) * (nvars - 1)
    d2 = FuncCoef(lambda pt: val(pt[0]) * (chain(pt[0]) ** 2 + chain_p(pt[0])))
    d1 = FuncCoef(lambda pt: val(pt[0]) * chain(pt[0]), partials=(d2,) + zeros)
    return FuncCoef(lambda pt: val(pt[0]), partials=(d1,) + zeros)


def _acc(terms, I, coef):
    terms[I] = SumCoef((terms[I], coef)) if I in terms else coef


def elliptic_current_operators(m: GaudinModel, z):
    """Currents e(z), f(z), h(z) on (tsq, t_1..t_N).

    e(z) = sum_a Kn(tsq^{-1}, z/z_a) e^(a), f(z) = sum_a Kn(tsq, z/z_a) f^(a),
    h(z) = 2 tsq d/dtsq + 2k tdot(tsq) + sum_a tdot(z/z_a) h^(a), with the site
    generators realized as first-order operators in t_a.
    """
    validate_model(m)
    if not m.is_elliptic:
        raise GaudinModelError(["not_elliptic"])
    p = _params(m)
    nv = m.N + 1
    vars_ = elliptic_vars(m)
    z = complex(z)

    e_terms, f_terms, h_terms = {}, {}, {}
    for a, (za, la) in enumerate(zip(m.z, m.lam)):
        ratio = z / za
        aC = _kernel_coef(ratio, p, nv, inverse=True)
        bC = _kernel_coef(ratio, p, nv, inverse=False)
        tau = theta_log_deriv(ratio, p)
        i = a + 1
        # e^(a) = t_a^2 d_a + 2 lam_a t_a
        _acc(e_terms, axis_index(nv, i), ProdCoef((aC, axis_monomial(nv, i, 2))))
        _acc(e_terms, (0,) * nv, ProdCoef((aC, axis_monomial(nv, i, 1, 2 * la))))
        # f^(a) = -d_a
        _acc(f_terms, axis_index(nv, i), ProdCoef((ConstCoef(-1.0), bC)))
        # tau_a h^(a) = 2 tau_a (t_a d_a + lam_a)
        _acc(h_terms, axis_index(nv, i), axis_monomial(nv, i, 1, 2 * tau))
        _acc(h_terms, (0,) * nv, ConstCoef(2 * tau * la))

    _acc(h_terms, axis_index(nv, 0), axis_monomial(nv, 0, 1, 2.0))
    if m.elliptic.k != 0:
        k = m.elliptic.k
        dtd = FuncCoef(lambda pt: -2 * k * weierstrass_p(pt[0], p) / pt[0])
        _acc(h_terms, (0,) * nv,
             FuncCoef(lambda pt: 2 * k * theta_log_deriv(pt[0], p),
                      partials=(dtd,) + (ConstCoef(0.0),) * (nv - 1)))

    mk = lambda terms: DifferentialOperator(vars_, dict(terms))
    return mk(e_terms), mk(f_terms), mk(h_terms)


def elliptic_hamiltonian_density(m: GaudinModel, z) -> DifferentialOperator:
    """Normal-ordered density e(z)f(z) + f(z)e(z) + h(z)^2/2."""
    e, f, h = elliptic_current_operators(m, z)
    return op_compose(e, f) + op_compose(f, e) + 0.5 * op_compose(h, h)


def elliptic_site_operators(m: GaudinModel):
    """Site e/f/h as operators on (tsq, t_1..t_N); tsq is inert."""
    nv = m.N + 1
    vars_ = elliptic_vars(m)
    out = []
    for a, la in enumerate(m.lam):
        i = a + 1
        e = make_op(vars_, {axis_index(nv, i): axis_monomial(nv, i, 2),
                            (0,) * nv: axis_monomial(nv, i, 1, 2 * la)})
        f = make_op(vars_, {axis_index(nv, i): ConstCoef(-1.0)})
        h = make_op(vars_, {axis_index(nv, i): axis_monomial(nv, i, 1, 2.0),
                            (0,) * nv: ConstCoef(2 * la)})
        out.append((e, f, h))
    return out


# ------------------------------------------------- elliptic Hamiltonian extract


def _fit_points(m: GaudinModel, count: int, seed: int = 20260814):
    """Deterministic spectral-parameter samples away from all site orbits."""
    p = _params(m)
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        zj = cmath.exp(complex(rng.uniform(-0.1, 0.1), rng.uniform(0, 2 * math.pi)))
        if any(_mult_dist_to_lattice(zj / za, p) < 0.08 for za in m.z):
            continue
        if any(_mult_dist_to_lattice(zj / prev, p) < 0.03 for prev in pts):
            continue
        pts.append(zj)
    return pts


class DensityFit:
    """Least-squares extraction of {L_0, L_a} from a quadratic current density.

    The density expands over {1, tdot_a(z), p_a(z), tdot_a(z)^2} with operator
    coefficients.  The p_a and tdot_a^2 coefficients are known in closed form
    (Casimir constant minus the h-bilinear, and the h-bilinear), so they are
    subtracted and the remaining {L_0, L_a} solved per evaluation point by
    least squares, cached point by point.  Parameterized over the current
    realization so both the direct currents and their Radon-transformed
    counterparts in the u-variables go through the same fit.
    """

    def __init__(self, vars_, z_sites, p, density_at, site_hs, casimirs, z_samples):
        self.vars_ = tuple(vars_)
        self.z_sites = tuple(z_sites)
        self.p = p
        self.z_samples = list(z_samples)
        n = len(self.z_samples)
        self._densities = [density_at(zj) for zj in self.z_samples]

        Hp = site_hs[0]
        for hb in site_hs[1:]:
            Hp = Hp + hb
        nv = len(self.vars_)
        self._j_tau2 = [0.5 * op_compose(h, Hp) for h in site_hs]
        self._j_p = []
        for cas, jt in zip(casimirs, self._j_tau2):
            const = make_op(self.vars_, {(0,) * nv: ConstCoef(cas)})
            self._j_p.append(const - jt)

        vals = [[_log_deriv_and_wp(zj / za, p) for za in self.z_sites]
                for zj in self.z_samples]
        tau = np.array([[td for td, _ in row] for row in vals])
        self._pz = np.array([[wp for _, wp in row] for row in vals])
        self._tau = tau
        self.design = np.hstack([np.ones((n, 1)), tau])
        self.condition = float(np.linalg.cond(self.design))

        keys = set()
        for d in self._densities:
            keys |= set(d.terms)
        for op in self._j_tau2 + self._j_p:
            keys |= set(op.terms)
        self._keys = sorted(keys)
        self._cache = {}

        self.L0 = self._fitted_operator(0)
        self.L = [self._fitted_operator(1 + a) for a in range(len(self.z_sites))]

    def _solve_at(self, pt):
        if pt in self._cache:
            return self._cache[pt]
        rows = []
        jp_vals = [eval_terms(op, pt) for op in self._j_p]
        jt_vals = [eval_terms(op, pt) for op in self._j_tau2]
        for j, dens in enumerate(self._densities):
            dv = eval_terms(dens, pt)
            row = []
            for I in self._keys:
                v = dv.get(I, 0.0)
                for a in range(len(self.z_sites)):
                    v -= self._pz[j, a] * jp_vals[a].get(I, 0.0)
                    v -= self._tau[j, a] ** 2 * jt_vals[a].get(I, 0.0)
                row.append(v)
            rows.append(row)
        B = np.array(rows)
        X, *_ = np.linalg.lstsq(self.design, B, rcond=None)
        resid = float(np.abs(self.design @ X - B).max())
        sol = {"coef": {I: X[:, k] for k, I in enumerate(self._keys)}, "residual": resid}
        self._cache[pt] = sol
        return sol

    def fit_residual(self, pt) -> float:
        return self._solve_at(tuple(pt))["residual"]

    def _fitted_operator(self, column):
        terms = {}
        for I in self._keys:
            terms[I] = FuncCoef(
                lambda pt, _I=I, _c=column: self._solve_at(tuple(pt))["coef"][_I][_c])
        return DifferentialOperator(self.vars_, terms)


class EllipticHamiltonians(DensityFit):
    """L_0, L_1..L_N for the direct currents on (tsq, t_1..t_N)."""

    def __init__(self, m: GaudinModel, n_samples: Optional[int] = None,
                 seed: int = 20260814):
        validate_model(m)
        if not m.is_elliptic:
            raise GaudinModelError(["not_elliptic"])
        self.model = m
        n = max(2 * m.N + 2, n_samples or 0)
        sites = elliptic_site_operators(m)
        super().__init__(
            elliptic_vars(m), m.z, _params(m),
            lambda zj: elliptic_hamiltonian_density(m, zj),
            [h for (_, _, h) in sites],
            [2 * la * (la - 1) for la in m.lam],
            _fit_points(m, n, seed),
        )


def elliptic_hamiltonians(m: GaudinModel, n_samples: Optional[int] = None,
                          seed: int = 20260814) -> EllipticHamiltonians:
    return EllipticHamiltonians(m, n_samples, seed)


# ------------------------------------------------------- restricted test family


def weight_restricted_monomials(m: GaudinModel, count: int = 4, seed: int = 5,
                                tsq_exponents=(0, 1, -1)):
    """Monomials in (tsq, t_1..t_N) annihilated by sum_a h^(a).

    Exponents satisfy sum_a g_a = -sum_a lam_a; the tsq exponent is free.
    """
    rng = np.random.default_rng(seed)
    target = -sum(m.lam)
    out = []
    for i in range(count):
        g = rng.normal(size=m.N) * 0.8
        g[-1] = 0.0
        g = g - g.sum() / m.N
        g = g + np.full(m.N, target / m.N)
        g0 = tsq_exponents[i % len(tsq_exponents)]
        out.append(Monomial((g0,) + tuple(complex(v) for v in g)))
    return out


def restricted_commutativity_report(m: GaudinModel, pairs=2, tol: float = 1e-8,
                                    seed: int = 17) -> VerificationReport:
    """[density(z), density(z')] on the sum-h-annihilated monomial family."""
    rng = np.random.default_rng(seed)
    p = _params(m)
    worst = 0.0
    samples = 0
    tests = weight_restricted_monomials(m, count=3, seed=seed)
    for _ in range(pairs):
        zs = _fit_points(m, 2, seed=int(rng.integers(1, 10**6)))
        D1 = elliptic_hamiltonian_density(m, zs[0])
        D2 = elliptic_hamiltonian_density(m, zs[1])
        comm = op_commutator(D1, D2)
        for mono in tests:
            for _ in range(2):
                pt = tuple(cmath.exp(complex(rng.uniform(-0.05, 0.05),
                                             rng.uniform(0, 2 * math.pi)))
                           for _ in range(m.N + 1))
                if _mult_dist_to_lattice(pt[0], p) < 0.05:
                    continue
                worst = max(worst, abs(op_apply(comm, mono, pt)))
                samples += 1
    return VerificationReport("restricted-commutativity", samples, worst, tol, seed,
                              anchor="density commutators on the weight-constrained family")
