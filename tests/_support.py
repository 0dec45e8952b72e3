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


def reference_rate_tensors(spectrum, system_ops, bath):
    """The gain tensor K and escape coefficients kappa as dicts, filled by
    loops, the reference for the arrays of build_rate_tensors.

    K maps (a, m, b, n) to sum_cx A_c[a, m] Gamma_xc(w) A_x[b, n]^* on every
    quadruple whose gaps w_m - w_a and w_n - w_b snap to the same Bohr
    frequency w (nearest by argmin); kappa maps same-multiplet pairs (i, j)
    to sum_w K(w i, w j).
    """
    from lindforge import bohr_frequencies, gamma_matrix

    v = spectrum.basis
    mats = [v.conj().T @ np.asarray(a, dtype=complex) @ v for a in system_ops]
    dim = spectrum.dim
    values = bohr_frequencies(spectrum).values
    reps = spectrum.representative_frequencies()
    gaps = reps[None, :] - reps[:, None]  # gaps[a, m] = w_m - w_a
    nearest = np.abs(gaps[:, :, None] - values[None, None, :]).argmin(axis=2)
    k_map = {}
    for widx, w in enumerate(values):
        pairs = [(a, m) for a in range(dim) for m in range(dim) if nearest[a, m] == widx]
        if not pairs:
            continue
        e_mat = np.array([[mat[a, m] for (a, m) in pairs] for mat in mats])
        k_block = e_mat.T @ gamma_matrix(bath, w).T @ e_mat.conj()
        for p, (a, m) in enumerate(pairs):
            for q, (b, n) in enumerate(pairs):
                k_map[(a, m, b, n)] = complex(k_block[p, q])
    midx = spectrum.multiplet_index
    kap = {}
    for i in range(dim):
        for j in range(dim):
            if midx[i] == midx[j]:
                kap[(i, j)] = sum(k_map.get((w, i, w, j), 0.0) for w in range(dim))
    return k_map, kap


def reference_pauli(k_map, kap, spectrum):
    """pauli_equations by loops over the dicts of reference_rate_tensors:
    returns a dict of PauliReduction's fields."""
    dim = spectrum.dim
    freqs = spectrum.multiplet_frequencies
    gaps = [abs(freqs[q] - freqs[p]) for p in range(len(freqs))
            for q in range(p + 1, len(freqs))]
    gaps_ok = not any(abs(gaps[x] - gaps[y]) <= spectrum.degeneracy_tol
                      for x in range(len(gaps)) for y in range(x + 1, len(gaps)))
    degenerate = any(g > 1 for g in spectrum.degeneracies)
    flags = (("degenerate-multiplets",) if degenerate else ()) + (
        () if gaps_ok else ("shared-transition-frequency",))
    out = dict(degenerate=degenerate, all_gaps_distinct=gaps_ok, flags=flags,
               gain=None, escape=None, coherence_decay=None,
               block_gain=None, block_escape=None)
    if not degenerate:
        out["escape"] = np.array([kap[(a, a)].real for a in range(dim)])
        out["gain"] = np.array([[k_map[(a, m, a, m)].real for m in range(dim)]
                                for a in range(dim)])
        if gaps_ok:
            decay = np.zeros((dim, dim))
            for a in range(dim):
                for b in range(dim):
                    if a != b:
                        decay[a, b] = (0.5 * (kap[(a, a)].real + kap[(b, b)].real)
                                       - k_map[(a, a, b, b)].real)
            out["coherence_decay"] = decay
        return out
    mults = spectrum.multiplets
    block_gain = {}
    for big_a, idx_a in enumerate(mults):
        for big_m, idx_m in enumerate(mults):
            block = np.zeros((len(idx_a),) * 2 + (len(idx_m),) * 2, dtype=complex)
            for ia, a in enumerate(idx_a):
                for ia2, a2 in enumerate(idx_a):
                    for im, m in enumerate(idx_m):
                        for im2, m2 in enumerate(idx_m):
                            block[ia, ia2, im, im2] = k_map.get((a, m, a2, m2), 0.0)
            if np.any(block != 0):
                block_gain[(big_a, big_m)] = block
    out["block_gain"] = block_gain
    out["block_escape"] = {
        big_a: np.array([[kap[(a, a2)] for a2 in idx] for a in idx])
        for big_a, idx in enumerate(mults)
    }
    return out


def reference_kernel(k_map, kap, dim):
    """kernel_superoperator_matrix by scattering the dict entries one by one."""
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)

    def col(i, j):
        return i + dim * j

    for (a, m, b, n), val in k_map.items():
        mat[col(a, b), col(m, n)] += val
    for (i, j), val in kap.items():
        for b in range(dim):
            mat[col(j, b), col(i, b)] += -0.5 * val
        for a in range(dim):
            mat[col(a, i), col(a, j)] += -0.5 * val
    return mat
