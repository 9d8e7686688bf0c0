"""Periodic unit-box spectral grids, Fourier calculus, and raw field snapshots.

Conventions, fixed for the whole package:

    * domain is the unit torus [0,1)^dim, grid spacing 1/n, collocation
      points x_j = j/n;
    * physical wavenumbers kappa = 2*pi*k with k the integer FFT lattice;
    * field arrays are real float64, grid axes LAST, component axes first:
      scalar (n, ..), vector (ncomp, n, ..), tensor (dim, dim, n, ..);
    * (grad f)[i, c] = d f_c / d x_i, (div T)_j = d_i T_ij;
    * the dealias box keeps |k_j| <= band = floor(n/3) on every axis.  n is
      a power of two, so 3*band <= n - 1 and products of three band-limited
      fields are evaluated alias-free by the collocation grid sum;
    * a spectral array holds the box |k_j| <= M of numpy's rfftn half
      spectrum, stored contiguously: every grid axis but the last keeps the
      rows k = 0..M, -M..-1, the last keeps k = 0..M, and the other half
      follows by conjugate symmetry.  M = n/2 is the full half spectrum
      (rows in numpy's order, hshape = (n,)*(dim-1) + (n//2 + 1,)), so an
      array's M is its last-axis length minus one and no array carries a
      tag.  Spectral shape (ncomp, ..) + box(M).shape.

fft(f, M=M) returns the box gather of numpy's rfftn and ifft the irfftn of
the zero-padded box, both bit for bit; only lines that reach the box are
transformed, and in 3D the forward transform gathers slab by slab.  ifft
pads the box to n/2 + 1 columns for irfft, which runs faster on them, and
takes numpy's out=, so a field can be filled chunk by chunk.  box(M) holds
the wavenumber multipliers of one layout, cached on the grid, and to_box
gathers or zero-pads an array into another box.  The solver reads every
state through box(band) and keeps its forces and its update there too; only
the validating calculus uses the full layout.  This module alone owns the
box cache (tests/test_box_cache.py).
"""

from __future__ import annotations

import itertools
import os
import struct
from functools import cached_property

import numpy as np

from .errors import ParameterError

SNAPSHOT_MAGIC = b"NMFLOW01"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<8sIIIId"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 32 bytes


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _row_blocks(ax: int, M: int, rows: int) -> tuple[tuple, tuple]:
    """Index tuples of the row blocks k = 0..M and k = -M..-1 along grid axis
    `ax` (-2 or -3) of an array with `rows` rows on that axis."""
    tail = (slice(None),) * (-1 - ax)
    return (Ellipsis, slice(0, M + 1)) + tail, (Ellipsis, slice(rows - M, rows)) + tail


class _Box:
    """The layout of box(M) and its wavenumber multipliers, each built on
    first use from the grid's per-axis wavenumbers."""

    def __init__(self, grid: "SpectralGrid", M: int):
        n = grid.n
        rows = np.r_[0:M + 1, n - M:n] if 2 * M < n else np.arange(n)
        axes = [grid._kf[rows]] * (grid.dim - 1) + [grid._kr[:M + 1]]
        self.M = M
        self.shape = tuple(len(a) for a in axes)
        # integer wavenumbers per axis, broadcastable over shape
        self.k = tuple(a.reshape((-1,) + (1,) * (grid.dim - 1 - i)) for i, a in enumerate(axes))
        self._nyquist = n // 2

    @cached_property
    def kappa_d(self) -> tuple[np.ndarray, ...]:
        # Odd-derivative multipliers zero the Nyquist mode |k_j| = n/2: it is
        # its own conjugate partner, so i*kappa there would break real-to-real
        # differentiation.  Band-limited fields never carry those bins; this
        # only hardens the operators for raw input.
        return tuple(np.where(np.abs(k) == self._nyquist, 0.0, 2.0 * np.pi * k) for k in self.k)

    @cached_property
    def ikappa_d(self) -> tuple[np.ndarray, ...]:
        return tuple(1j * kd for kd in self.kappa_d)

    @cached_property
    def ksq(self) -> np.ndarray:
        return sum((2.0 * np.pi * k) ** 2 for k in self.k)

    @cached_property
    def ksq_d(self) -> np.ndarray:
        return sum(kd ** 2 for kd in self.kappa_d)

    @cached_property
    def inv_ksq_d(self) -> np.ndarray:
        ksq_d = self.ksq_d
        return np.where(ksq_d > 0.0, 1.0 / np.where(ksq_d > 0.0, ksq_d, 1.0), 0.0)


class SpectralGrid:
    """Collocation grid with per-axis wavenumbers, box layouts, and transform helpers."""

    def __init__(self, dim: int, n: int):
        if dim not in (2, 3):
            raise ParameterError(f"dim must be 2 or 3, got {dim}")
        if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
            raise ParameterError(f"n must be a power of two >= 8, got {n}")
        self.dim = int(dim)
        self.n = int(n)
        self.shape = (self.n,) * self.dim
        self.hshape = (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)
        self.npoints = self.n ** self.dim
        self.band = self.n // 3
        # numpy's fftfreq/rfftfreq order as floats, built without numpy.fft:
        # numpy imports it on first use, and a sweep builds each member's
        # grid to check it in a process that transforms nothing
        k = np.arange(self.n, dtype=np.float64)
        self._kf = np.where(k < self.n // 2, k, k - self.n)
        self._kr = k[: self.n // 2 + 1]  # last axis: 0..n/2
        self._boxes: dict[int, _Box] = {}

    # -- box layouts -----------------------------------------------------------

    def box(self, M: int) -> _Box:
        """Layout and multipliers of box(M), 0 <= M <= n/2; M = n/2 is the
        full half spectrum.  Each box is cached on the grid for its life."""
        if not isinstance(M, (int, np.integer)) or not 0 <= M <= self.n // 2:
            raise ParameterError(f"box size M must be an integer in [0, {self.n // 2}], got {M!r}")
        b = self._boxes.get(M)
        if b is None:
            b = self._boxes[M] = _Box(self, int(M))
        return b

    def box_of(self, fhat: np.ndarray) -> _Box:
        """box(M) of a spectral array, M read from its last axis."""
        shape = np.shape(fhat)
        M = shape[-1] - 1 if shape else -1
        b = self._boxes.get(M) or (self.box(M) if 0 <= M <= self.n // 2 else None)
        if b is None or shape[-self.dim:] != b.shape:
            raise ParameterError(f"spectral array of shape {shape} is in no box layout "
                                 f"of the {self.dim}D n={self.n} grid")
        return b

    def to_box(self, fhat: np.ndarray, M: int) -> np.ndarray:
        """fhat in the layout of box(M): its modes in box(M) gathered when M
        is the smaller box, zero-padded when M is the larger; fhat itself when
        it is already in box(M)."""
        src, dst = self.box_of(fhat), self.box(M)
        if src is dst:
            return fhat
        new = np.empty if dst.M < src.M else np.zeros
        out = new(fhat.shape[:-self.dim] + dst.shape, dtype=fhat.dtype)
        self._copy_box(out, fhat, min(src.M, dst.M))
        return out

    def _copy_box(self, out: np.ndarray, fhat: np.ndarray, m: int) -> None:
        """Copy the modes of box(m) from fhat to out, arrays whose grid axes
        but the last hold the rows k = 0..m first and k = -m..-1 last."""
        rs, ro = fhat.shape[-2], out.shape[-2]
        blocks = ((slice(0, m + 1),) * 2, (slice(rs - m, rs), slice(ro - m, ro)))
        for combo in itertools.product(blocks, repeat=self.dim - 1):
            rows_src, rows_out = zip(*combo)
            out[(Ellipsis, *rows_out, slice(0, m + 1))] = fhat[(Ellipsis, *rows_src, slice(0, m + 1))]

    # -- transforms ---------------------------------------------------------

    def fft(self, f: np.ndarray, *, M: int | None = None) -> np.ndarray:
        """Coefficients of a real field over the grid axes on box(M), by
        default the full half spectrum (numpy's rfftn).  Each complex pass
        runs over full-length lines of the rows still in the box and is
        followed by a row gather.  In 3D the rfft and the axis -2 pass run
        in four slabs of the first grid axis, each gathered into the box
        before the next, so a transform onto a smaller box never holds the
        full half spectrum."""
        n = self.n
        M = n // 2 if M is None else self.box(M).M
        if 2 * M >= n:
            y = np.fft.rfft(f, axis=-1)
            for ax in range(-2, -self.dim - 1, -1):
                np.fft.fft(y, axis=ax, out=y)
            return y
        y = np.empty(f.shape[:-2] + (2 * M + 1, M + 1), dtype=complex)
        slabs = [(Ellipsis,)] if self.dim == 2 else [
            (Ellipsis, slice(a, a + n // 4), slice(None), slice(None)) for a in range(0, n, n // 4)]
        for slab in slabs:
            lines = np.fft.rfft(f[slab], axis=-1)[..., :M + 1]
            np.fft.fft(lines, axis=-2, out=lines)
            np.concatenate([lines[b] for b in _row_blocks(-2, M, n)], axis=-2, out=y[slab])
            del lines
        if self.dim == 3:
            np.fft.fft(y, axis=-3, out=y)
            y = np.concatenate([y[b] for b in _row_blocks(-3, M, n)], axis=-3)
        return y

    def ifft(self, fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real field from coefficients on any box: the irfftn of the box
        zero-padded to the full half spectrum.  Each complex pass transforms
        only lines whose columns, and rows on later axes, lie in the box;
        irfft gets all n/2 + 1 columns, since numpy's own padding of fewer is
        slower.  As in numpy, out receives the field and is returned; filling
        a field chunk by chunk, ifft(fhat[s], out=f[s]), gives one call's bits."""
        n = self.n
        M = self.box_of(fhat).M
        if 2 * M >= n:
            y = np.fft.ifft(fhat, axis=-self.dim)  # out of place: fhat is not written
            for ax in range(1 - self.dim, -1):
                np.fft.ifft(y, axis=ax, out=y)
            return np.fft.irfft(y, n=n, axis=-1, out=out)
        y = np.zeros(fhat.shape[:-self.dim] + self.hshape, dtype=complex)
        box = y[..., :M + 1]
        self._copy_box(box, fhat, M)
        for ax in range(-self.dim, -1):
            for lines in ((box,) if ax == -2 else (box[b] for b in _row_blocks(-2, M, n))):
                np.fft.ifft(lines, axis=ax, out=lines)
        return np.fft.irfft(y, n=n, axis=-1, out=out)

    # -- spectral operators (on arrays in any box layout) ----------------------

    def grad_hat(self, fhat: np.ndarray) -> np.ndarray:
        """i*kappa_i fhat along a new leading axis."""
        out = np.empty((self.dim,) + fhat.shape, dtype=complex)
        for i, ik in enumerate(self.box_of(fhat).ikappa_d):
            np.multiply(ik, fhat, out=out[i])
        return out

    def div_hat(self, vhat: np.ndarray) -> np.ndarray:
        """sum_i i*kappa_i vhat[i]: the divergence of a vector, or (div T)_j of a tensor."""
        ik = self.box_of(vhat).ikappa_d
        out = ik[0] * vhat[0]
        term = np.empty_like(out)
        for i in range(1, self.dim):
            out += np.multiply(ik[i], vhat[i], out=term)
        return out

    def potential_hat(self, vhat: np.ndarray) -> np.ndarray:
        """q = (kappa . vhat)/|kappa|^2, so vhat = leray_hat(vhat) + kappa q;
        the gradient part is grad p with p_hat = -i q."""
        b = self.box_of(vhat)
        q = b.kappa_d[0] * vhat[0]
        for i in range(1, self.dim):
            q += b.kappa_d[i] * vhat[i]
        q *= b.inv_ksq_d
        return q

    def leray_hat(self, vhat: np.ndarray) -> np.ndarray:
        """Divergence-free part of vhat; the mean mode passes through."""
        q = self.potential_hat(vhat)
        out = np.empty_like(vhat)
        for i, kd in enumerate(self.box_of(vhat).kappa_d):
            np.subtract(vhat[i], np.multiply(kd, q, out=out[i]), out=out[i])
        return out

    def coords(self) -> np.ndarray:
        """Collocation coordinates, shape (dim,) + grid shape."""
        x1 = np.arange(self.n) / self.n
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    # -- validating calculus on grid fields ------------------------------------
    #
    # No run calls these five: the solver works on spectra.  They stay because
    # the benchmark's tracer binds them by name.  Each checks its input, then
    # goes through fft and ifft, so it is exact on the retained modes.

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

    def _via_fourier(self, f: np.ndarray, what: str, op=None, lead: tuple | None = None,
                     M: int | None = None) -> np.ndarray:
        """ifft(op(fft(f, M=M))) for a field that passes _check; no op is the
        round trip through box(M)."""
        fhat = self.fft(self._check(f, what, lead), M=M)
        return self.ifft(fhat if op is None else op(fhat))

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """d/dx_i along a new leading axis: result[i, ...] = d f[...] / d x_i."""
        return self._via_fourier(f, "gradient", self.grad_hat)

    def div_tensor(self, T: np.ndarray) -> np.ndarray:
        """(div T)_j = d_i T_ij for T of shape (dim, dim) + grid."""
        return self._via_fourier(T, "div_tensor", self.div_hat, (self.dim, self.dim))

    def leray(self, v: np.ndarray) -> np.ndarray:
        """Project onto divergence-free fields; the mean mode passes through."""
        return self._via_fourier(v, "leray", self.leray_hat, (self.dim,))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Zero every mode with any |k_j| > floor(n/3)."""
        return self._via_fourier(f, "dealias", M=self.band)

    def truncate_modes(self, f: np.ndarray, M: int) -> np.ndarray:
        """Zero every mode with max_j |k_j| > M.  Requires 1 <= M <= n/2."""
        if not isinstance(M, (int, np.integer)) or not (1 <= int(M) <= self.n // 2):
            raise ParameterError(f"truncate_modes: M must be an integer in [1, {self.n // 2}], got {M}")
        return self._via_fourier(f, "truncate_modes", M=int(M))

    # -- norms and quadrature (collocation sums on the unit box) ----------------
    #
    # These kernels check nothing: their callers' fields are finite by
    # construction.  The grid mean of a scalar field is its integral over the
    # unit box.

    # einsum contracts without a temporary and without BLAS, whose threaded
    # dot would oversubscribe the cores a sweep's workers share.
    def l2_inner_unchecked(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1))) / self.npoints

    def box_inner_unchecked(self, ahat: np.ndarray, bhat: np.ndarray) -> float:
        """l2_inner_unchecked of ifft(ahat) and ifft(bhat), on one box, by
        Parseval: a column k_last stands for itself and its conjugate, weight
        2, but k_last = 0 and n/2 only for themselves."""
        a, b = (np.ascontiguousarray(f).view(np.float64).reshape(-1, 2 * f.shape[-1])
                for f in (ahat, bhat))  # rows of (re, im) pairs
        m = 2 * min(ahat.shape[-1], self.n // 2)  # the pairs before column n/2
        s = [float(np.einsum("ij,ij->", a[:, c], b[:, c])) for c in (np.s_[:2], np.s_[2:m], np.s_[m:])]
        return (s[0] + 2.0 * s[1] + s[2]) / self.npoints ** 2

    def sup_norm_unchecked(self, f: np.ndarray) -> float:
        if f.ndim == self.dim:
            return float(np.abs(f).max())
        return float(np.sqrt(_sum_squares(f, self.dim).max()))


def _sum_squares(f: np.ndarray, ndim: int) -> np.ndarray:
    """Pointwise sum of f*f over all but the last ndim (grid) axes, with no squared temporary."""
    f = f.reshape((-1,) + f.shape[f.ndim - ndim:])
    return np.einsum("i...,i...->...", f, f)


def check_kmax(grid: SpectralGrid, kmax: int) -> None:
    if not (1 <= kmax <= grid.band):
        raise ParameterError(f"kmax must be in [1, {grid.band}], got {kmax}")


def random_band_limited(grid: SpectralGrid, ncomp: int, kmax: int, rng: np.random.Generator) -> np.ndarray:
    """Real random field with modes confined to |k_j| <= kmax, unit sup norm.

    Deterministic given the generator state; used by initial-condition presets
    and by randomized tests.
    """
    check_kmax(grid, kmax)
    f = rng.standard_normal((ncomp,) + grid.shape)
    f = grid.ifft(grid.fft(f, M=kmax))
    peak = grid.sup_norm_unchecked(f)
    if peak == 0.0:
        raise ParameterError("degenerate random draw, zero field")
    f /= peak
    return f


# -- snapshots: raw little-endian float64 with a fixed 32-byte header ----------


def save_snapshot(path, field: np.ndarray, time: float, grid: SpectralGrid) -> None:
    """Write one multi-component field (shape (ncomp,) + grid shape) to disk;
    the payload is written from the field itself when it is contiguous
    little-endian float64, else from one converted copy."""
    field = np.asarray(field, dtype="<f8")
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
        fh.write(np.ascontiguousarray(field).data)


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
        size = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if size != expected:
            raise ParameterError(f"{path}: payload is {size} bytes, expected {expected}")
        field = np.empty((ncomp,) + (n,) * dim, dtype="<f8")  # read in place, no copy
        fh.seek(_HEADER_SIZE)
        fh.readinto(field)
    if not np.isfinite(field).all():
        raise ParameterError(f"{path}: non-finite values in stored field")
    return field, meta["time"], meta
