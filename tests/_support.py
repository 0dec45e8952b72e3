"""Shared helpers for the test suite."""

import numpy as np


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim, scale=1.0):
    m = crandn(rng, dim, dim)
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = crandn(rng, dim, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    m = crandn(rng, dim, dim)
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sigma_ops():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e| for diag(0, w)
    return sx, sy, sz, sm


def nondegenerate_hamiltonian(rng, dim, min_gap=0.3, span=4.0):
    """Random hermitian H whose eigenvalue gaps are all at least min_gap."""
    for _ in range(200):
        h = random_hermitian(rng, dim, scale=span)
        w = np.linalg.eigvalsh(h)
        if np.diff(w).min() >= min_gap:
            return h
    raise RuntimeError("could not sample a well-gapped hamiltonian")


def record_eigh(monkeypatch, key=lambda m: np.shape(m)[0]):
    """Wrap np.linalg.eigh; returns the list of key(matrix) per call."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(m, *args, **kwargs):
        seen.append(key(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return seen


def reference_pieces(g):
    """Term-by-term expansion of a generator, the reference for its contracted
    pieces: returns (G, [(L, R), ...]) with

        rhs(rho) = -i [h_eff, rho] + G rho + rho G^+ + sum L rho R.

    Each ordered frequency pair (W source, W' target) and channel pair (a, b)
    contributes, with c = F(W' - W) W_ab(W):

        c       A_b(W)  rho A_a(W')^+      - c       A_a(W')^+ A_b(W) rho
        conj(c) A_a(W') rho A_b(W)^+       - conj(c) rho A_b(W)^+ A_a(W')

    The secular generator keeps only W' = W with c = Gamma_ab(W) / 2, its
    frequency shift being part of h_eff.
    """
    from lindforge import secular_filter

    dim = g.dim
    big_g = np.zeros((dim, dim), dtype=complex)
    pairs = []
    for src in g.dissipator_terms:
        for dst in g.dissipator_terms:
            if g.mode == "secular":
                if dst.omega != src.omega:
                    continue
                rates = 0.5 * np.asarray(src.gamma, dtype=complex)
            else:
                rates = secular_filter(dst.omega, src.omega, g.policy) * src.w_matrix()
            for a in range(dst.channel_count):
                dst_a_dag = dst.ops[a].conj().T
                for b in range(src.channel_count):
                    c = rates[a, b]
                    src_b = src.ops[b]
                    pairs.append((c * src_b, dst_a_dag))
                    pairs.append((np.conj(c) * dst.ops[a], src_b.conj().T))
                    big_g -= c * (dst_a_dag @ src_b)
    return big_g, pairs


def reference_rhs(g, rho):
    big_g, pairs = reference_pieces(g)
    h = g.h_eff
    out = -1j * (h @ rho - rho @ h) + big_g @ rho + rho @ big_g.conj().T
    for left, right in pairs:
        out = out + left @ rho @ right
    return out


def reference_superoperator(g):
    """Column-stacking matrix of reference_rhs, one np.kron per term."""
    big_g, pairs = reference_pieces(g)
    h = g.h_eff
    eye = np.eye(g.dim, dtype=complex)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    mat += np.kron(eye, big_g) + np.kron(big_g.conj(), eye)
    for left, right in pairs:
        mat += np.kron(right.T, left)
    return mat


def reference_correlation_time(bath, channels=None):
    """estimate_correlation_time with one phase table per channel pair, the
    reference for the single union table: returns a CorrelationTable."""
    import math

    from lindforge import CorrelationTable
    from lindforge.bath import DECAY_THRESHOLD

    if channels is None:
        channels = list(range(bath.channel_count))
    channels = list(channels)
    pair_data = [[bath._pair_terms(a, b) for b in channels] for a in channels]
    scale0 = 0.0
    for row in pair_data:
        for weights, _ in row:
            if len(weights):
                scale0 = max(scale0, abs(complex(np.sum(weights))))
    freqs = bath.weighted_bohr_frequencies(channels)
    top = np.abs(freqs).max() if len(freqs) else 1.0
    nonzero = np.abs(freqs)[np.abs(freqs) > 1e-12 * max(1.0, top)]
    if scale0 <= 0.0 or len(nonzero) == 0:
        raise ValueError("reference covers decaying or recurring baths only")
    nu_min = float(nonzero.min())
    nu_max = float(nonzero.max())
    t_end = 8.0 * math.pi / nu_min
    dt = math.pi / (16.0 * nu_max)
    n = int(min(4096, max(64, math.ceil(t_end / dt))))
    taus = np.linspace(0.0, t_end, n)
    k = len(channels)
    values = np.zeros((k, k, n), dtype=complex)
    for i in range(k):
        for j in range(k):
            weights, fr = pair_data[i][j]
            if len(weights) == 0:
                continue
            for start in range(0, n, 512):
                stop = min(start + 512, n)
                phases = np.exp(1j * np.outer(fr, taus[start:stop]))
                values[i, j, start:stop] = weights @ phases
    below = np.abs(values).max(axis=(0, 1)) <= DECAY_THRESHOLD * scale0
    for i in range(1, (n - 1) // 2 + 1):
        if below[i : 2 * i + 1].all():
            return CorrelationTable(taus, values, float(taus[i]), False)
    return CorrelationTable(taus, values, math.pi / nu_min, True)
