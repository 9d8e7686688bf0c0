"""Periodic unit-box spectral grids, Fourier calculus, and raw field snapshots.

Conventions, fixed for the whole package:

    * domain is the unit torus [0,1)^dim, grid spacing 1/n, collocation
      points x_j = j/n;
    * physical wavenumbers kappa = 2*pi*k with k the integer FFT lattice;
    * field arrays are real float64, grid axes LAST, component axes first:
      scalar (n, ..), vector (ncomp, n, ..), tensor (dim, dim, n, ..);
    * (grad f)[i, c] = d f_c / d x_i, (div T)_j = d_i T_ij;
    * the dealias mask keeps |k_j| <= floor(n/3) on every axis.  n is a
      power of two, so 3*floor(n/3) <= n - 1 and products of three masked
      fields are evaluated alias-free by the collocation grid sum;
    * spectral arrays hold the half spectrum of numpy's rfftn: the last grid
      axis keeps k = 0..n/2 only, the other modes follow by conjugate
      symmetry.  Spectral shape (ncomp, ..) + hshape with
      hshape = (n,)*(dim-1) + (n//2 + 1,).

Transforms give numpy's rfftn/irfftn bit for bit; with M they are pruned to
the box |k_j| <= M and give the bits of the masked full transform.  The
solver prunes each transform it masks at once and each inverse of a
band-limited operand.  A stepped state carries its band-limited u_hat and
d_hat, so grad u, grad d, the tension and the monitor's curl are pruned as
well.  Only the transforms of a state built from fields (the initial state,
a snapshot) and the validating calculus stay on the full path: there the
operands are band-limited only up to rounding, so pruning would change bits.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParameterError

SNAPSHOT_MAGIC = b"NMFLOW01"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<8sIIIId"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 32 bytes


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class SpectralGrid:
    """Collocation grid with cached wavenumbers, masks, and transform helpers."""

    def __init__(self, dim: int, n: int):
        if dim not in (2, 3):
            raise ParameterError(f"dim must be 2 or 3, got {dim}")
        if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
            raise ParameterError(f"n must be a power of two >= 8, got {n}")
        self.dim = int(dim)
        self.n = int(n)
        self.shape = (self.n,) * self.dim
        self.npoints = self.n ** self.dim
        self.band = self.n // 3

        kf = np.fft.fftfreq(self.n, d=1.0 / self.n)   # integers as floats
        kr = np.fft.rfftfreq(self.n, d=1.0 / self.n)  # last axis: 0..n/2
        k1 = np.meshgrid(*([kf] * (self.dim - 1) + [kr]), indexing="ij", sparse=True)
        self.k = np.stack(np.broadcast_arrays(*k1))   # (dim,) + hshape, integer lattice
        self.hshape = self.k.shape[1:]
        self.ksq = sum((2.0 * np.pi * ki) ** 2 for ki in k1)
        self.dealias_mask = self.box_mask(self.band)
        # Half-spectrum multiplicity in a full-spectrum sum: interior last-axis
        # modes stand for themselves and their conjugate partner.
        self.hweight = np.where((kr == 0) | (kr == self.n // 2), 1.0, 2.0)

        # Per-axis odd-derivative multipliers, broadcast over hshape, zero the
        # Nyquist mode |k_j| = n/2: it is its own conjugate partner, so i*kappa
        # there would break real-to-real differentiation.  Band-limited fields
        # never carry those bins; this only hardens the operators for raw input.
        self.kappa_d = tuple(np.where(np.abs(ki) == self.n // 2, 0.0, 2.0 * np.pi * ki)
                             for ki in k1)
        self.ikappa_d = tuple(1j * kd for kd in self.kappa_d)
        ksq_d = sum(kd ** 2 for kd in self.kappa_d)
        self.inv_ksq_d = np.where(ksq_d > 0.0, 1.0 / np.where(ksq_d > 0.0, ksq_d, 1.0), 0.0)

        self._sobolev_weights: dict[float, np.ndarray] = {}

    # -- transforms ---------------------------------------------------------

    def fft(self, f: np.ndarray, *, M: int | None = None) -> np.ndarray:
        """Half-spectrum coefficients of a real field over the grid axes.  With M,
        fft(f) * box_mask(M): only lines that reach the box are transformed."""
        M = self._pruning(M)
        y = np.fft.rfft(f, axis=-1)
        box = y if M is None else y[..., :M + 1]
        for ax in range(-2, -self.dim - 1, -1):
            for lines in self._box_lines(box, ax, M):
                np.fft.fft(lines, axis=ax, out=lines)
        if M is not None:
            self.zero_outside_box(y, M)
        return y

    def ifft(self, fhat: np.ndarray, *, M: int | None = None) -> np.ndarray:
        """Real field from half-spectrum coefficients.  With M, ifft(fhat *
        box_mask(M)): only the box is read and the all-zero lines are skipped."""
        M = self._pruning(M)
        if M is None:
            y = np.fft.ifft(fhat, axis=-self.dim)  # out of place: fhat is not written
            first = 1 - self.dim
        else:
            y = fhat[..., :M + 1].copy()
            self.zero_outside_box(y, M)
            first = -self.dim
        for ax in range(first, -1):
            for lines in self._box_lines(y, ax, M):
                np.fft.ifft(lines, axis=ax, out=lines)
        return np.fft.irfft(y, n=self.n, axis=-1)

    def _pruning(self, M: int | None) -> int | None:
        """M, or None where box_mask(M) keeps every mode.  From M = n/2 on,
        the row blocks [0, M] and [n-M, n) would overlap at the Nyquist row."""
        return M if M is not None and 2 * M < self.n else None

    def _box_lines(self, y: np.ndarray, ax: int, M: int | None):
        """Views of y holding its lines along grid axis `ax` (-2 or -3) whose
        rows on the axes between `ax` and the last lie in the box |k| <= M."""
        if M is None or ax == -2:
            return (y,)
        return (y[..., :M + 1, :], y[..., self.n - M:, :])

    def zero_outside_box(self, y: np.ndarray, M: int) -> None:
        """Zero the modes of the half-spectrum array y outside the box |k_j| <= M,
        in place.  Requires 2 M < n."""
        y[..., M + 1:] = 0.0
        for ax in range(-2, -self.dim - 1, -1):
            y[(Ellipsis, slice(M + 1, self.n - M)) + (slice(None),) * (-1 - ax)] = 0.0

    # -- spectral operators (on half-spectrum arrays) --------------------------

    def box_mask(self, M: int) -> np.ndarray:
        """True on the modes with every |k_j| <= M."""
        return np.all(np.abs(self.k) <= M, axis=0)

    def grad_hat(self, fhat: np.ndarray) -> np.ndarray:
        """i*kappa_i fhat along a new leading axis."""
        out = np.empty((self.dim,) + fhat.shape, dtype=complex)
        for i, ik in enumerate(self.ikappa_d):
            np.multiply(ik, fhat, out=out[i])
        return out

    def div_hat(self, vhat: np.ndarray) -> np.ndarray:
        """sum_i i*kappa_i vhat[i]: the divergence of a vector, or (div T)_j of a tensor."""
        out = self.ikappa_d[0] * vhat[0]
        term = np.empty_like(out)
        for i in range(1, self.dim):
            out += np.multiply(self.ikappa_d[i], vhat[i], out=term)
        return out

    def curl_hat(self, uhat: np.ndarray) -> np.ndarray:
        """Scalar vorticity in 2D, the curl vector in 3D."""
        ik = self.ikappa_d
        if self.dim == 2:
            return ik[0] * uhat[1] - ik[1] * uhat[0]
        out = np.empty_like(uhat)
        term = np.empty_like(uhat[0])
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            np.multiply(ik[a], uhat[b], out=out[c])
            out[c] -= np.multiply(ik[b], uhat[a], out=term)
        return out

    def potential_hat(self, vhat: np.ndarray) -> np.ndarray:
        """q = (kappa . vhat)/|kappa|^2, so vhat = leray_hat(vhat) + kappa q;
        the gradient part is grad p with p_hat = -i q."""
        q = self.kappa_d[0] * vhat[0]
        for i in range(1, self.dim):
            q += self.kappa_d[i] * vhat[i]
        q *= self.inv_ksq_d
        return q

    def leray_hat(self, vhat: np.ndarray) -> np.ndarray:
        """Divergence-free part of vhat; the mean mode passes through."""
        q = self.potential_hat(vhat)
        out = np.empty_like(vhat)
        for i, kd in enumerate(self.kappa_d):
            np.subtract(vhat[i], np.multiply(kd, q, out=out[i]), out=out[i])
        return out

    def coords(self) -> np.ndarray:
        """Collocation coordinates, shape (dim,) + grid shape."""
        x1 = np.arange(self.n) / self.n
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    # -- validation ---------------------------------------------------------

    def _check(self, f: np.ndarray, what: str, lead: tuple | None = None):
        """f as an array whose trailing axes are the grid, whose leading
        (component) shape is `lead` when given, and whose values are finite."""
        f = np.asarray(f)
        if f.shape[-self.dim:] != self.shape:
            raise ParameterError(
                f"{what}: trailing axes {f.shape[-self.dim:]} do not match grid {self.shape}"
            )
        if lead is not None and f.shape[:-self.dim] != lead:
            raise ParameterError(
                f"{what}: expected leading shape {lead}, got {f.shape[:-self.dim]}"
            )
        if not np.isfinite(f).all():
            raise ParameterError(f"{what}: non-finite values in input field")
        return f

    def _via_fourier(self, f: np.ndarray, what: str, op, lead: tuple | None = None) -> np.ndarray:
        """ifft(op(fft(f))) for a field that passes _check."""
        return self.ifft(op(self.fft(self._check(f, what, lead))))

    # -- calculus (exact on the retained modes) ------------------------------

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """d/dx_i along a new leading axis: result[i, ...] = d f[...] / d x_i."""
        return self._via_fourier(f, "gradient", self.grad_hat)

    def divergence(self, v: np.ndarray) -> np.ndarray:
        """Scalar d_i v_i for a velocity-like field of shape (dim,) + grid."""
        return self._via_fourier(v, "divergence", self.div_hat, (self.dim,))

    def div_tensor(self, T: np.ndarray) -> np.ndarray:
        """(div T)_j = d_i T_ij for T of shape (dim, dim) + grid."""
        return self._via_fourier(T, "div_tensor", self.div_hat, (self.dim, self.dim))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self._via_fourier(f, "laplacian", lambda fhat: -self.ksq * fhat)

    def curl(self, u: np.ndarray) -> np.ndarray:
        """Scalar vorticity d_1 u_2 - d_2 u_1 in 2D, the full curl vector in 3D."""
        return self._via_fourier(u, "curl", self.curl_hat, (self.dim,))

    def leray(self, v: np.ndarray) -> np.ndarray:
        """Project onto divergence-free fields; the mean mode passes through."""
        return self._via_fourier(v, "leray", self.leray_hat, (self.dim,))

    # -- filters -------------------------------------------------------------

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Zero every mode with any |k_j| > floor(n/3)."""
        return self._via_fourier(f, "dealias", lambda fhat: fhat * self.dealias_mask)

    def truncate_modes(self, f: np.ndarray, M: int) -> np.ndarray:
        """Zero every mode with max_j |k_j| > M.  Requires 1 <= M <= n/2."""
        if not isinstance(M, (int, np.integer)) or not (1 <= int(M) <= self.n // 2):
            raise ParameterError(f"truncate_modes: M must be an integer in [1, {self.n // 2}], got {M}")
        return self._via_fourier(f, "truncate_modes", lambda fhat: fhat * self.box_mask(int(M)))

    def sobolev_norm(self, f: np.ndarray, s: float) -> float:
        """|| (1+|kappa|^2)^(s/2) f ||_{L2}; s = 0 is the plain L2 norm."""
        return self.sobolev_norm_hat(self.fft(self._check(f, "sobolev_norm")), s)

    def sobolev_norm_hat(self, fhat: np.ndarray, s: float) -> float:
        """sobolev_norm from half-spectrum coefficients."""
        w = self._sobolev_weights.get(s)
        if w is None:
            w = self._sobolev_weights[s] = self.hweight * (1.0 + self.ksq) ** s
        total = float(np.sum(w * (fhat.real ** 2 + fhat.imag ** 2)))
        return float(np.sqrt(total)) / self.npoints

    # -- quadrature (collocation sums on the unit box) ------------------------
    #
    # The public forms validate their input; the *_unchecked kernels hold the
    # formulas and serve callers whose fields are finite by construction.

    def mean(self, f: np.ndarray) -> float:
        """Grid average of a scalar field == its integral over the unit box."""
        return self.mean_unchecked(self._check(f, "mean", ()))

    def l2_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """<a, b> = mean over the grid of the full component contraction."""
        a = self._check(a, "l2_inner lhs")
        b = self._check(b, "l2_inner rhs")
        if a.shape != b.shape:
            raise ParameterError(f"l2_inner: shape mismatch {a.shape} vs {b.shape}")
        return self.l2_inner_unchecked(a, b)

    def l2_norm(self, f: np.ndarray) -> float:
        return self.l2_norm_unchecked(self._check(f, "l2_norm"))

    def sup_norm(self, f: np.ndarray) -> float:
        """max over grid points of the pointwise Euclidean (Frobenius) magnitude."""
        return self.sup_norm_unchecked(self._check(f, "sup_norm"))

    def mean_unchecked(self, f: np.ndarray) -> float:
        return float(f.mean())

    def l2_inner_unchecked(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(a * b)) / self.npoints

    def l2_norm_unchecked(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(f * f) / self.npoints))

    def sup_norm_unchecked(self, f: np.ndarray) -> float:
        if f.ndim == self.dim:
            return float(np.abs(f).max())
        mag2 = np.sum(f * f, axis=tuple(range(f.ndim - self.dim)))
        return float(np.sqrt(mag2.max()))


def random_band_limited(grid: SpectralGrid, ncomp: int, kmax: int, rng: np.random.Generator) -> np.ndarray:
    """Real random field with modes confined to |k_j| <= kmax, unit sup norm.

    Deterministic given the generator state; used by initial-condition presets
    and by randomized tests.
    """
    if not (1 <= kmax <= grid.band):
        raise ParameterError(f"kmax must be in [1, {grid.band}], got {kmax}")
    f = rng.standard_normal((ncomp,) + grid.shape)
    f = grid.ifft(grid.fft(f, M=kmax), M=kmax)
    peak = np.sqrt(np.sum(f * f, axis=0).max())
    if peak == 0.0:
        raise ParameterError("degenerate random draw, zero field")
    f /= peak
    return f


# -- snapshots: raw little-endian float64 with a fixed 32-byte header ----------


def save_snapshot(path, field: np.ndarray, time: float, grid: SpectralGrid) -> None:
    """Write one multi-component field (shape (ncomp,) + grid shape) to disk."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != grid.dim + 1 or field.shape[1:] != grid.shape:
        raise ParameterError(
            f"save_snapshot: expected shape (ncomp,) + {grid.shape}, got {field.shape}"
        )
    if not np.isfinite(field).all():
        raise ParameterError("save_snapshot: non-finite values in field")
    header = struct.pack(
        _HEADER_FMT, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
        grid.dim, grid.n, field.shape[0], float(time),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field).astype("<f8").tobytes())


def read_snapshot_header(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_SIZE)
    if len(raw) < _HEADER_SIZE:
        raise ParameterError(f"{path}: truncated snapshot header")
    magic, version, dim, n, ncomp, time = struct.unpack(_HEADER_FMT, raw)
    if magic != SNAPSHOT_MAGIC:
        raise ParameterError(f"{path}: bad magic {magic!r}, not a field snapshot")
    if version != SNAPSHOT_VERSION:
        raise ParameterError(f"{path}: unsupported snapshot version {version}")
    if dim not in (2, 3) or n < 8 or not _is_power_of_two(n) or not (1 <= ncomp <= 9):
        raise ParameterError(f"{path}: implausible header dim={dim} n={n} ncomp={ncomp}")
    if not np.isfinite(time):
        raise ParameterError(f"{path}: non-finite snapshot time {time}")
    return {"dim": dim, "n": n, "ncomp": ncomp, "time": time}


def load_snapshot(path) -> tuple[np.ndarray, float, dict]:
    """Read a snapshot back; returns (field, time, header dict).  Validates
    magic, version, payload size, and finiteness."""
    meta = read_snapshot_header(path)
    dim, n, ncomp = meta["dim"], meta["n"], meta["ncomp"]
    expected = ncomp * n ** dim * 8
    with open(path, "rb") as fh:
        fh.seek(_HEADER_SIZE)
        payload = fh.read()
    if len(payload) != expected:
        raise ParameterError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    field = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + (n,) * dim).copy()
    if not np.isfinite(field).all():
        raise ParameterError(f"{path}: non-finite values in stored field")
    return field, meta["time"], meta
