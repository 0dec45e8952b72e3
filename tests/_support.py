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
