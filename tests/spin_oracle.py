"""The eigh oracle of the closed-form spin solve: the NV axes and the
spin-1 Hamiltonian, written out here rather than taken from
`cavitybus.spin`, so that a wrong axis table or level formula in the
package shows against numpy.linalg.eigh."""

import math

import numpy as np

# Spin-1 operators in the {+1, 0, -1} basis.  All terms of the
# Hamiltonian are real in this basis, so plain float64 symmetric
# matrices suffice.
_SZ = np.diag([1.0, 0.0, -1.0])
_SZ2 = np.diag([1.0, 0.0, 1.0])
_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
# Sx^2 - Sy^2 couples m_s = +1 and m_s = -1 directly.
_SXX_MINUS_SYY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

# The four <111> NV axis directions of an unrotated cubic crystal, one
# row per `AxisClass` (K111, K1M1M1, KM11M1, KM1M11).
AXES_111 = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / math.sqrt(3.0)


def nv_axis_vectors(orientation) -> np.ndarray:
    """The four NV symmetry axes as unit rows of a (4, 3) array,
    rotated about z by the crystal azimuth."""
    a = math.radians(orientation.azimuth)
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return AXES_111 @ rot.T


def spin_hamiltonian(params, b_parallel, b_transverse) -> np.ndarray:
    """Spin-1 Hamiltonian (MHz) in the NV frame, basis {+1, 0, -1};
    array components give a stack of matrices."""
    b_par = np.asarray(b_parallel, dtype=float)[..., None, None]
    b_perp = np.asarray(b_transverse, dtype=float)[..., None, None]
    return (
        params.d_splitting * _SZ2
        + params.e_strain * _SXX_MINUS_SYY
        + params.gyromagnetic * (b_par * _SZ + b_perp * _SX)
    )
