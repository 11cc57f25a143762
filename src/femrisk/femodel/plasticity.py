"""Von Mises radial return with a consistent tangent (Simo & Hughes,
Computational Inelasticity, ch. 3-4).  The elastic predictor and the yield
test are batched over all quadrature points; the return map and the
tangent run only at the points that yield, and a batch in which no point
yields hands back its elastic tangent, plastic strains and equivalent
plastic strains themselves.  The elastic tangent may be a broadcast view
(one tangent per element for its Gauss points), and the tangent returned
keeps its shape.

Voigt convention throughout: [xx, yy, zz, xy, yz, zx] with engineering
shear strains (gamma) and tensor shear stresses.  The yield stress is a
piecewise-linear function of equivalent plastic strain: a plateau at
plateau_frac * sigma_y0 up to eps_plateau, then linear softening with
slope soft_frac * E, floored at floor_frac * plateau.
"""

import numpy as np


def _yield_stress(alpha, plateau, h_soft, eps_plateau, floor):
    sy = np.where(alpha <= eps_plateau, plateau,
                  plateau + h_soft * (alpha - eps_plateau))
    return np.maximum(sy, floor)


# Fourth-order projectors in Voigt form: the volumetric part (1 (x) 1) and
# the deviatoric part, which maps an engineering shear strain to half of
# it in tensor shear stress.
_EYE3 = np.zeros((6, 6))
_EYE3[:3, :3] = 1.0
_IDEV = np.zeros((6, 6))
_IDEV[:3, :3] = -1.0 / 3.0
_IDEV[0, 0] = _IDEV[1, 1] = _IDEV[2, 2] = 2.0 / 3.0
_IDEV[3, 3] = _IDEV[4, 4] = _IDEV[5, 5] = 0.5


def _moduli(emod, nu):
    """Shear modulus, Lame's first parameter and bulk modulus of emod."""
    g = emod / (2.0 * (1.0 + nu))
    lam = emod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return g, lam, lam + 2.0 * g / 3.0


# The four distinct pairs (c1, c2) of entries of _EYE3 and _IDEV, and the
# pair at each of the 36 entries.
_PAIRS = np.array([[0.0, 0.0], [0.0, 0.5], [1.0, -1.0 / 3.0], [1.0, 2.0 / 3.0]])
_PATTERN = np.argmax((np.stack([_EYE3, _IDEV], axis=-1)[:, :, None] == _PAIRS).all(axis=-1),
                     axis=-1)


def _isotropic(kb, shear):
    """kb (1 (x) 1) + shear * I_dev for each point, (n, 6, 6), C-ordered:
    each entry is (0.0 + kb c1) + shear c2 of its pair in _PAIRS, the
    operations, in their order, of zeros + kb _EYE3 + shear _IDEV, and so
    their bits, signed zeros and infinities included (a NaN stays NaN)."""
    values = (0.0 + kb[:, None] * _PAIRS[:, 0]) + shear[:, None] * _PAIRS[:, 1]
    return np.take(values, _PATTERN, axis=1)


def elastic_tangent(emod, nu):
    """Isotropic elastic tangents (n, 6, 6) of the moduli emod (n,), read
    only: the tangent radial_return_batch gives every point that stays
    elastic, with the same bits.  Points that share a modulus share its
    tangent: a caller may pass radial_return_batch a broadcast view of
    these, such as one tangent per element for its Gauss points."""
    g, _, kb = _moduli(np.asarray(emod, dtype=float), nu)
    tangent = _isotropic(kb, 2.0 * g)
    tangent.flags.writeable = False
    return tangent


def radial_return_batch(strain, eps_p, alpha, emod, nu, sigma_y0,
                        plateau_frac, eps_plateau, soft_frac, floor_frac, elastic):
    """Elastic predictor / radial return over a batch of quadrature points.

    strain, eps_p: (n, 6) engineering Voigt; alpha, emod, sigma_y0: (n,);
    elastic: the points' tangents elastic_tangent(emod, nu), which a caller
    with fixed moduli computes once, in any shape (..., 6, 6) whose leading
    axes flatten to the n points: (n, 6, 6), or a read-only broadcast view
    such as (ne, 8, 6, 6) of one tangent per element.  The trial stress and
    the yield test run at every point; the return map and the consistent
    tangent run only at the points that yield.  When no point yields, the
    batch returns right after the yield test, with elastic, eps_p and alpha
    themselves.  Otherwise the tangent is a C-ordered copy of elastic, in
    its shape, with the rows of the points that yield replaced, and eps_p
    and alpha are fresh arrays in which only those points move.  No input
    is written to.
    Returns (stress (n,6), tangent (elastic's shape), eps_p_new, alpha_new).
    """
    strain = np.asarray(strain, dtype=float)
    eps_p = np.asarray(eps_p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    emod = np.asarray(emod, dtype=float)
    sigma_y0 = np.asarray(sigma_y0, dtype=float)

    g, lam, kb = _moduli(emod, nu)

    # Trial stress, which holds its deviator s until p_mean is added back.
    ee = strain - eps_p
    tr = ee[:, 0] + ee[:, 1] + ee[:, 2]
    stress = np.empty_like(strain)
    stress[:, :3] = (lam * tr)[:, None] + 2.0 * g[:, None] * ee[:, :3]
    stress[:, 3:] = g[:, None] * ee[:, 3:]
    p_mean = stress[:, :3].mean(axis=1)
    stress[:, :3] -= p_mean[:, None]
    q = np.sqrt(1.5 * (stress[:, :3] ** 2).sum(axis=1) + 3.0 * (stress[:, 3:] ** 2).sum(axis=1))

    plateau = plateau_frac * sigma_y0
    h_soft = soft_frac * emod
    floor = floor_frac * plateau
    sy_cur = _yield_stress(alpha, plateau, h_soft, eps_plateau, floor)
    plastic = q > sy_cur
    if not plastic.any():
        stress[:, :3] += p_mean[:, None]
        return stress, elastic, eps_p, alpha

    # From here on, only the points that yield.  Their q exceeds a yield
    # stress >= floor >= 0, so q and the norm of s are positive.
    s, q, g, a = stress[plastic], q[plastic], g[plastic], alpha[plastic]
    plateau, h_soft, floor = plateau[plastic], h_soft[plastic], floor[plastic]
    three_g = 3.0 * g
    # Plateau branch, where the step stays on the plateau.
    dgamma = (q - sy_cur[plastic]) / three_g
    stays = (a < eps_plateau) & (a + dgamma <= eps_plateau)
    # Softening branch (either crossing out of the plateau or already past),
    # or the floor where softening reaches it.
    dg_soft = (q - plateau - h_soft * (a - eps_plateau)) / (three_g + h_soft)
    sy_new = _yield_stress(a + dg_soft, plateau, h_soft, eps_plateau, floor)
    hit_floor = ~stays & (sy_new <= floor + 1e-300)
    soft = ~stays & ~hit_floor
    dgamma = np.where(soft, dg_soft, np.where(hit_floor, (q - floor) / three_g, dgamma))
    h_used = np.where(soft, h_soft, 0.0)

    # Stress update: scale the trial deviator.
    scale = 1.0 - (three_g * dgamma) / q
    stress[plastic] = s * scale[:, None]
    stress[:, :3] += p_mean[:, None]

    # Plastic strain update (engineering shear gets the factor 2).
    flow = 1.5 * s / q[:, None]
    flow[:, 3:] *= 2.0
    eps_p_new = eps_p.copy()
    eps_p_new[plastic] += dgamma[:, None] * flow
    alpha_new = alpha.copy()
    alpha_new[plastic] += dgamma

    # Consistent tangent: the elastic one, except at the points that yield.
    # The copy is C-ordered, so that the reshape below is a view of it even
    # when elastic is a broadcast view.
    tangent = np.array(elastic, dtype=float, order="C")
    s_norm = np.sqrt((s[:, :3] ** 2).sum(axis=1) + 2.0 * (s[:, 3:] ** 2).sum(axis=1))
    m = s / s_norm[:, None]
    c_n = 6.0 * g**2 * (dgamma / q - 1.0 / (three_g + h_used))
    yielded = c_n[:, None, None] * (m[:, :, None] * m[:, None, :])
    yielded += _isotropic(kb[plastic], 2.0 * g * scale)
    tangent.reshape(-1, 6, 6)[plastic] = yielded

    return stress, tangent, eps_p_new, alpha_new
