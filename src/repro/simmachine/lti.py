"""Exact advance of a linear time-invariant (LTI) thermal system.

The lumped RC thermal network obeys ``C dT/dt = -G T + W u`` where ``T`` is
the vector of node temperatures, ``u`` the input vector (core powers and
ambient temperature) and ``C``/``G`` the capacitance/conductance matrices.
In state-space form ``T' = A T + B u``.

Between simulation events the input ``u`` is constant, so the ODE has the
closed-form solution::

    T(t0 + dt) = e^{A dt} (T0 - Tss) + Tss,   Tss = -A^{-1} B u

We cache the eigendecomposition of ``A`` once, which makes each advance a
couple of small matrix-vector products — exact to machine precision with no
step-size error, regardless of how long or short the event gap is.  This is
the property that lets the simulator advance thermals lazily only when
something observes or changes them.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigError


class LTISystem:
    """State-space system ``x' = A x + B u`` with exact piecewise advance.

    Parameters
    ----------
    A:
        Square (n, n) state matrix.  Must be Hurwitz (all eigenvalues with
        negative real part) for :meth:`steady_state` to be meaningful; the
        constructor validates this because a non-dissipative thermal network
        is always a configuration bug.
    B:
        (n, m) input matrix.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, *, require_stable: bool = True):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ConfigError(f"B rows must match A, got A={A.shape} B={B.shape}")
        self.A = A
        self.B = B
        self.n = A.shape[0]
        self.m = B.shape[1]

        # Eigendecomposition cache.  RC networks are similar to symmetric
        # matrices, so ``eig`` returns real arrays for them; a general A
        # keeps complex arithmetic and casts back at the end.
        w, V = np.linalg.eig(A)
        if require_stable and np.any(w.real >= 1e-12):
            raise ConfigError(
                f"A is not stable (eigenvalue real parts {w.real}); the thermal "
                "network must dissipate to ambient"
            )
        self._w = w
        self._V = V
        self._Vinv = np.linalg.inv(V)
        # Precompute A^{-1} B for steady states.
        self._AinvB = np.linalg.solve(A, B)
        self._real = not np.iscomplexobj(V)

    def steady_state(self, u: np.ndarray) -> np.ndarray:
        """Return ``x_ss = -A^{-1} B u``, the fixed point under constant input."""
        u = np.asarray(u, dtype=float)
        return -(self._AinvB @ u)

    def advance(self, x0: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
        """Advance the state exactly by *dt* seconds under constant input *u*."""
        if dt < 0:
            raise ConfigError(f"dt must be non-negative, got {dt}")
        if dt == 0.0:
            return np.array(x0, dtype=float, copy=True)
        return self._advance(np.asarray(x0, dtype=float),
                             np.asarray(u, dtype=float), dt)

    def _advance(self, x0: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
        """:meth:`advance` for float arrays and ``dt > 0``, unchecked: the
        per-event path of :class:`~repro.simmachine.thermal.ThermalNetwork`.
        The result is a fresh array that aliases neither input."""
        xss = -(self._AinvB @ u)
        # e^{A dt} v  =  V diag(e^{w dt}) V^{-1} v
        coeffs = self._Vinv @ (x0 - xss)
        x = self._V @ (np.exp(self._w * dt) * coeffs) + xss
        if self._real:
            return x
        return np.real_if_close(x).real.astype(float)

    def response_curve(
        self, x0: np.ndarray, u: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`advance` at many offsets; returns (len(times), n)."""
        times = np.asarray(times, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        xss = self.steady_state(u)
        coeffs = self._Vinv @ (x0 - xss)
        # (t, n) = (t, n_modes) * broadcast
        decay = np.exp(np.outer(times, self._w))  # (t, n)
        out = (decay * coeffs) @ self._V.T + xss
        return np.real_if_close(out).real.astype(float)

    def time_constants(self) -> np.ndarray:
        """Return the thermal time constants ``-1/Re(lambda_i)`` in seconds."""
        return np.sort(-1.0 / self._w.real)
