"""Matrix input/output, stability validation, and test-matrix generation.

``MatrixProblem.split`` is the one place where A's block structure is
found.  g and h depend on A only through unitary invariants, so when A is
unitarily block diagonal, A = Q (T_1 (+) ... (+) T_p) Q*, every dense
certificate pencil is block diagonal too: the Sylvester operator
W -> H1 W + W H2 that it vectorizes splits into one independent
(b, b') pair of diagonal blocks per pair of blocks of A.  The split is
read off the Schur form of A (the real Schur form for a real A, so real
pencils stay real): couplings at or below the Schur decomposition's own
backward error, ``SPLIT_COUPLING_FACTOR * n * eps * ||A||_F``, are
dropped, and the blocks are the connected components of what remains.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

from .errors import (
    MissingBaseMatrixError,
    NotSquareError,
    ParseError,
    UnknownKindError,
    UnstableError,
    ZeroEigenvalueError,
)

__all__ = [
    "TimeDomain",
    "MatrixKind",
    "MatrixProblem",
    "SplitForm",
    "load_matrix",
    "save_matrix",
    "gen_test_matrix",
]

# Relative threshold below which an eigenvalue modulus counts as zero.
_ZERO_EIG_RTOL = 1e-14
# A coupling of A's Schur form at or below this times n * eps * ||A||_F is
# dropped when A is split into blocks: that is the order of the backward
# error the Schur decomposition itself commits, so the split A differs
# from A by no more than the decomposition already did.
SPLIT_COUPLING_FACTOR = 10.0
# MatrixProblem.stability_gap takes this share of its Lyapunov bound
GAP_SAFETY = 0.5
# MatrixProblem.numerical_range_bound adds this times n * eps * ||A||
NUMRANGE_MARGIN = 4.0
# and samples the numerical radius at this many equally spaced angles
NUMRANGE_ANGLES = 256


class TimeDomain(str, enum.Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


class MatrixKind(str, enum.Enum):
    JORDAN_SHIFTED = "jordan-shifted"
    RANDOM_STABLE_SHIFTED = "random-stable-shifted"
    COMPANION_SHIFTED = "companion-shifted"
    CONVDIFF_SHIFTED = "convdiff-shifted"


@dataclass(frozen=True)
class MatrixProblem:
    """A validated stable matrix together with its time domain.

    Construction enforces the stability assumption the search algorithms
    rely on: all eigenvalues strictly in the open left half-plane
    (continuous) or strictly inside the unit disk with no zero eigenvalue
    (discrete).  Instances are immutable and safe to share across threads.
    """

    A: np.ndarray
    time_domain: TimeDomain
    n: int = field(init=False)
    spectral_abscissa: float = field(init=False)
    spectral_radius: float = field(init=False)
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NotSquareError(f"matrix has shape {A.shape}")
        if A.shape[0] < 1:
            raise NotSquareError("matrix must be at least 1 x 1")
        if not np.all(np.isfinite(A)):
            raise ParseError("matrix has non-finite entries")
        A = A.copy()
        A.setflags(write=False)
        td = TimeDomain(self.time_domain)
        eigs = np.linalg.eigvals(A)
        eigs.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "time_domain", td)
        object.__setattr__(self, "n", A.shape[0])
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "spectral_abscissa", float(np.max(eigs.real)))
        object.__setattr__(self, "spectral_radius", float(np.max(np.abs(eigs))))
        self._validate()

    def _validate(self):
        if self.time_domain is TimeDomain.CONTINUOUS:
            # Strict margin with zero tolerance: borderline matrices rejected.
            if not self.spectral_abscissa < 0:
                raise UnstableError(
                    f"not Hurwitz stable: spectral abscissa = {self.spectral_abscissa:.6g} >= 0"
                )
        else:
            if not self.spectral_radius < 1:
                raise UnstableError(
                    f"not Schur stable: spectral radius = {self.spectral_radius:.6g} >= 1"
                )
            moduli = np.abs(self.eigenvalues)
            if np.min(moduli) <= _ZERO_EIG_RTOL * max(1.0, self.spectral_radius):
                raise ZeroEigenvalueError(
                    "zero is (numerically) an eigenvalue; the discrete-time "
                    "certificates require a nonsingular matrix"
                )

    @property
    def is_continuous(self) -> bool:
        return self.time_domain is TimeDomain.CONTINUOUS

    def _memo(self, name, build, key=None):
        """``build()``, kept on the problem under ``name`` and ``key``.

        The attribute holds one immutable ``(key, value)`` tuple, replaced
        whole when another key is asked for, so concurrent readers see one
        value or the other, never a mix.
        """
        slot = getattr(self, name, None)
        if slot is None or slot[0] != key:
            slot = (key, build())
            object.__setattr__(self, name, slot)
        return slot[1]

    @property
    def svals(self) -> np.ndarray:
        """Singular values of A, in decreasing order (computed on first use, read-only)."""

        def build():
            svals = np.linalg.svd(self.A, compute_uv=False)
            svals.setflags(write=False)
            return svals

        return self._memo("_svals", build)

    @property
    def norm2(self) -> float:
        """Spectral norm of A: its largest singular value (``svals``)."""
        return float(self.svals[0])

    @property
    def stability_gap(self) -> float:
        """A proven lower bound on sigma_min(z I - A) over the barrier curve
        (the imaginary axis, or the unit circle), computed on first use.

        The minimum is the complex stability radius of A (Hinrichsen &
        Pritchard, Systems & Control Letters 1986), and one Lyapunov (Stein)
        solve bounds it from below.  In continuous time the Hermitian P
        solves A*P + PA = -I up to the residual R, ||R|| = r < 1.  Let
        sigma_min(iyI - A) = s: some Delta with ||Delta|| = s has
        (A + Delta) v = iy v, and then v*((A + Delta)*P + P(A + Delta))v = 0,
        while that form is -I + R + Delta*P + P Delta, negative definite
        when r + 2 s ||P|| < 1.  So s >= (1 - r)/(2||P||).  In discrete time
        A*PA - P = -I + R, and (A + Delta) v = e^{it} v gives
        v*((A + Delta)*P(A + Delta) - P)v = 0, while the form is
        -I + R + Delta*PA + A*P Delta + Delta*P Delta, negative definite when
        ||P|| (s^2 + 2 s ||A||) < 1 - r; so s >= q/(sqrt(||A||^2 + q) + ||A||)
        with q = (1 - r)/||P||.  The bound returned is GAP_SAFETY times that,
        which covers the rounding in R and in the norms; a result that is not
        finite and positive gives 0.

        Since sigma_min((x + iy)I - A) >= sigma_min(iyI - A) - x (Weyl),
        g(x, y) > gamma on every line x < gap/(1 + gamma), and likewise
        h(r, theta) > gamma on every circle with r - 1 < gap/(1 + gamma)
        (``objective.Domain.search_interval``).
        """

        def build():
            A, eye = self.A, np.eye(self.n)
            Ah = A.conj().T
            if self.is_continuous:
                P = scipy.linalg.solve_continuous_lyapunov(Ah, -eye)
            else:
                P = scipy.linalg.solve_discrete_lyapunov(Ah, eye)
            P = 0.5 * (P + P.conj().T)
            R = (Ah @ P + P @ A if self.is_continuous else Ah @ P @ A - P) + eye
            q = (1.0 - np.linalg.norm(R, 2)) / np.linalg.norm(P, 2)
            a = self.norm2
            gap = GAP_SAFETY * (0.5 * q if self.is_continuous else q / (np.sqrt(a * a + q) + a))
            return float(gap) if np.isfinite(gap) and gap > 0.0 else 0.0

        return self._memo("_stability_gap", build)

    @property
    def numerical_range_bound(self) -> float:
        """A proven upper bound on the numerical abscissa omega(A) (continuous
        time) or the numerical radius w(A) (discrete time), computed on first use.

        sigma_min(zI - A) is the least ||(zI - A)v|| over unit vectors v, and
        ||(zI - A)v|| >= |v*(zI - A)v| = |z - v*Av| by Cauchy-Schwarz.  In
        continuous time |z - v*Av| >= Re z - Re(v*Av) >= Re z - omega(A),
        with omega(A) = lambda_max((A + A*)/2), one ``eigvalsh``; in discrete
        time |z - v*Av| >= |z| - w(A).  So sigma_min(zI - A) >= Re z - omega(A),
        or >= |z| - w(A) (Trefethen & Embree, Spectra and Pseudospectra, 2005,
        ch. 17).

        w(A) is the maximum over theta of f(theta) = lambda_max(Re(e^{-i theta} A)),
        Re X = (X + X*)/2, and two bounds on it are taken, the lesser kept:
        (||A|| + ||A^2||^(1/2))/2 (Kittaneh, Studia Math. 158, 2003), which
        never exceeds ||A||, and the largest f on the m = NUMRANGE_ANGLES
        angles 2 pi k/m plus ||A|| pi/m: f is Lipschitz with constant ||A||,
        as ||Re((e^{-i s} - e^{-i t}) A)|| <= |s - t| ||A||, and every angle
        lies within pi/m of the grid.  One batched ``eigvalsh`` on the grid's
        first half gives the whole grid, since f(theta + pi) is minus the
        least eigenvalue of Re(e^{-i theta} A).  The bound returned adds a
        rounding margin of NUMRANGE_MARGIN * n * eps * ||A||, which covers the
        backward errors of ``eigvalsh`` and of the SVDs behind the norms;
        under the root, n * margin * ||A|| covers the rounding of the
        product A^2.

        So g(x, y) > gamma on every line x > omega/(1 - gamma), and
        h(r, theta) > gamma on every circle with r - 1 > (w - 1)/(1 - gamma)
        (``objective.Domain.search_interval``); when omega <= 0 (w <= 1) no
        point at any gamma < 1 exists, and K = 1
        (``objective.Domain.contractive``).
        """

        def build():
            a = self.norm2
            margin = NUMRANGE_MARGIN * self.n * np.finfo(float).eps * a
            if self.is_continuous:
                bound = np.linalg.eigvalsh(0.5 * (self.A + self.A.conj().T))[-1]
            else:
                a2 = np.linalg.norm(self.A @ self.A, 2)
                kittaneh = 0.5 * (a + np.sqrt(a2 + self.n * margin * a))
                half = NUMRANGE_ANGLES // 2
                R = np.exp(-1j * np.pi * np.arange(half) / half)[:, None, None] * self.A
                lam = np.linalg.eigvalsh(0.5 * (R + R.conj().transpose(0, 2, 1)))
                sampled = max(lam[:, -1].max(), -lam[:, 0].min()) + a * np.pi / NUMRANGE_ANGLES
                bound = min(a, kittaneh, sampled)
            return float(bound + margin)

        return self._memo("_numerical_range_bound", build)

    def level(self, key, build):
        """The certificate level cached under ``key``, or ``build()`` cached in its place.

        A problem keeps one level, the eta-free part of a 2D test's
        eigenproblem (``cert_ct.AffineLevel``); another key replaces it
        whole.  The certificate modules define the keys: the continuous-time
        variable and horizontal tests share one level per gamma, and so do
        the two discrete-time ones.
        """
        return self._memo("_level", build, key)

    def blocks_1d(self, build):
        """The blocks of the 1D level-set test's matrix or pencil
        (``objective.Domain.pencil_1d``), ``build()`` on first use: they
        depend on A alone, so every test reuses them."""
        return self._memo("_blocks_1d", build)

    @property
    def split(self) -> SplitForm:
        """A's block-diagonal form (module docstring), computed on first use."""
        return self._memo("_split", lambda: _split_form(self.A))


@dataclass(frozen=True)
class SplitForm:
    """A unitarily block-diagonal form T of a problem's matrix A.

    ``T`` is block diagonal with diagonal blocks of orders ``sizes``, in
    that order, and A = Q T Q* + E for a unitary Q, where E holds the
    dropped couplings: each at most ``threshold``, the largest
    ``dropped``.  When A does not split, ``T`` is A itself (not a copy),
    ``sizes`` is (n,) and nothing is dropped.
    """

    T: np.ndarray
    sizes: tuple[int, ...]
    threshold: float
    dropped: float = 0.0


def _split_form(A) -> SplitForm:
    """The split of A along the connected components of its Schur form."""
    n = A.shape[0]
    threshold = SPLIT_COUPLING_FACTOR * n * np.finfo(float).eps * float(np.linalg.norm(A))
    real = not A.imag.any()
    T = scipy.linalg.schur(A.real if real else A, output="real" if real else "complex")[0]
    kept = np.abs(T) > threshold
    # a kept superdiagonal chains every index into one block: the common
    # case, which skips connected_components' fixed cost (about 0.25 ms)
    if kept.diagonal(1).all():
        return SplitForm(A, (n,), threshold)
    # imported here, so that only a problem that may split pays its ~3 MB
    # of memory
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(kept, directed=False)
    if labels.max() == 0:
        return SplitForm(A, (n,), threshold)
    # a stable sort keeps each block's Schur order, so every block stays
    # (quasi-)triangular
    perm = np.argsort(labels, kind="stable")
    T = T[np.ix_(perm, perm)].astype(complex)
    same = labels[perm][:, None] == labels[perm][None, :]
    dropped = float(np.max(np.abs(T[~same])))
    T[~same] = 0.0
    T.setflags(write=False)
    return SplitForm(T, tuple(int(k) for k in np.bincount(labels)), threshold, dropped)


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------

_FORMATS = ("mm", "csv", "json")


def _normalize_format(fmt, path):
    if fmt is not None:
        fmt = {"matrixmarket": "mm", "mtx": "mm"}.get(str(fmt).lower(), str(fmt).lower())
        if fmt not in _FORMATS:
            raise ParseError(f"unknown matrix format {fmt!r}; expected one of {_FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower()
    by_ext = {".mtx": "mm", ".mm": "mm", ".csv": "csv", ".json": "json"}
    if suffix not in by_ext:
        raise ParseError(f"cannot infer format from extension {suffix!r}")
    return by_ext[suffix]


def _parse_complex(token: str) -> complex:
    txt = token.strip().replace(" ", "")
    if not txt:
        raise ValueError("empty entry")
    return complex(txt.replace("i", "j").replace("I", "j"))


def _format_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def load_matrix(path, fmt=None, time_domain=None) -> MatrixProblem:
    """Load and validate a matrix from a Matrix Market, CSV, or JSON file.

    Parameters
    ----------
    path : path-like
        File to read.
    fmt : {'mm', 'csv', 'json'}, optional
        Format; inferred from the extension when omitted.
    time_domain : TimeDomain or str, optional
        Declared time domain.  Required for 'mm' and 'csv'; for 'json' the
        embedded ``time_domain`` field is used unless overridden here.

    Raises
    ------
    ParseError, NotSquareError, UnstableError, ZeroEigenvalueError
    """
    path = Path(path)
    fmt = _normalize_format(fmt, path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")

    if fmt == "mm":
        try:
            A = scipy.io.mmread(path)
        except Exception as exc:
            raise ParseError(f"Matrix Market parse failure: {exc}") from exc
        A = np.asarray(A.todense() if scipy.sparse.issparse(A) else A, dtype=complex)
    elif fmt == "csv":
        rows = []
        try:
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([_parse_complex(tok) for tok in line.split(",")])
        except (ValueError, OSError) as exc:
            raise ParseError(f"CSV parse failure: {exc}") from exc
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("CSV rows are empty or ragged")
        A = np.array(rows, dtype=complex)
    else:
        try:
            doc = json.loads(path.read_text())
            re_part = np.array(doc["real"], dtype=float)
            im_part = np.array(doc.get("imag", np.zeros_like(re_part).tolist()), dtype=float)
            A = re_part + 1j * im_part
            if time_domain is None:
                time_domain = doc.get("time_domain")
            if int(doc.get("n", A.shape[0])) != A.shape[0]:
                raise ParseError("JSON 'n' field disagrees with the matrix shape")
        except ParseError:
            raise
        except (KeyError, ValueError, TypeError, OSError) as exc:
            raise ParseError(f"JSON parse failure: {exc}") from exc

    if time_domain is None:
        raise ParseError("time_domain must be supplied for this format")
    return MatrixProblem(A, TimeDomain(time_domain))


def save_matrix(prob: MatrixProblem, path, fmt=None) -> None:
    """Write a problem's matrix to disk in Matrix Market, CSV, or JSON form."""
    path = Path(path)
    fmt = _normalize_format(fmt, path)
    A = np.asarray(prob.A)
    if fmt == "mm":
        scipy.io.mmwrite(path, A)
    elif fmt == "csv":
        lines = [",".join(_format_complex(z) for z in row) for row in A]
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = {
            "n": prob.n,
            "real": A.real.tolist(),
            "imag": A.imag.tolist(),
            "time_domain": prob.time_domain.value,
        }
        path.write_text(json.dumps(doc))


# --------------------------------------------------------------------------
# test-matrix generation
# --------------------------------------------------------------------------

def _jordan_block(n, lam):
    return np.diag(np.full(n, lam, dtype=complex)) + np.diag(np.ones(n - 1), 1) if n > 1 \
        else np.array([[lam]], dtype=complex)


def gen_test_matrix(
    kind,
    n: int,
    seed: int = 0,
    time_domain=TimeDomain.CONTINUOUS,
    eps: float = 0.3,
    base_matrix=None,
) -> MatrixProblem:
    """Generate a deterministic stable test matrix.

    Parameters
    ----------
    kind : MatrixKind or str
        'jordan-shifted': a single Jordan block with eigenvalue ``-eps``
        (continuous) or ``1 - eps`` (discrete).
        'random-stable-shifted': a seeded Gaussian matrix shifted
        (continuous) or scaled (discrete) into the stable region.
        'companion-shifted' / 'convdiff-shifted': the shifted/scaled
        constructions ``B - 1.001*alpha(B)*I`` and ``B/13 + (11/10)*I``
        applied to an externally supplied base matrix ``B``.
    n : int
        Dimension (ignored for the base-matrix kinds, which take the base's).
    seed : int
        RNG seed; generation is deterministic for a fixed seed.
    time_domain : TimeDomain or str
        Target time domain.
    eps : float
        Stability margin for the Jordan kind, in (0, 1) for discrete.
    base_matrix : ndarray or path-like, optional
        Base matrix ``B`` for the two shifted EigTool-style kinds.  May be a
        file path loadable by :func:`load_matrix` conventions.
    """
    try:
        kind = MatrixKind(kind)
    except ValueError as exc:
        raise UnknownKindError(f"unknown test-matrix kind {kind!r}") from exc
    td = TimeDomain(time_domain)
    if n < 1:
        raise ValueError("n must be >= 1")

    if kind is MatrixKind.JORDAN_SHIFTED:
        lam = -eps if td is TimeDomain.CONTINUOUS else 1.0 - eps
        return MatrixProblem(_jordan_block(n, lam), td)

    if kind is MatrixKind.RANDOM_STABLE_SHIFTED:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if td is TimeDomain.CONTINUOUS:
            alpha = np.max(np.linalg.eigvals(B).real)
            kappa = alpha + 0.05 * max(1.0, abs(alpha))
            A = B - kappa * np.eye(n)
        else:
            rho = np.max(np.abs(np.linalg.eigvals(B)))
            A = B / (rho / 0.95)
        return MatrixProblem(A, td)

    # the two section-8 style constructions need an external base matrix
    if base_matrix is None:
        raise MissingBaseMatrixError(
            f"kind {kind.value!r} needs a base matrix (EigTool demo); none supplied"
        )
    if isinstance(base_matrix, (str, Path)):
        raw = np.loadtxt(base_matrix, dtype=complex) if str(base_matrix).endswith(".txt") \
            else load_matrix(base_matrix, time_domain=td).A
        B = np.atleast_2d(np.asarray(raw, dtype=complex))
    else:
        B = np.atleast_2d(np.asarray(base_matrix, dtype=complex))

    if kind is MatrixKind.COMPANION_SHIFTED:
        alpha = np.max(np.linalg.eigvals(B).real)
        A = B - 1.001 * alpha * np.eye(B.shape[0])
        return MatrixProblem(A, TimeDomain.CONTINUOUS)
    # MatrixKind.CONVDIFF_SHIFTED
    A = B / 13.0 + (11.0 / 10.0) * np.eye(B.shape[0])
    return MatrixProblem(A, TimeDomain.DISCRETE)
