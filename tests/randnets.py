"""Randomized network instances shared by the solver and acceptance tests."""

import numpy as np

from excitonprobe.model import LossBreakdown, SiteNetwork, WaveguideCoupling


def random_instance(rng, n_max=7, lossless=False):
    """One random scattering problem: (net, wg, energy)."""
    n = int(rng.integers(1, n_max + 1))
    net, wg = random_network(rng, n, lossless)
    energy = float(rng.uniform(-80.0, 80.0))
    return net, wg, energy


def random_network(rng, n, lossless=False):
    """A random n-site network probed at one or two of its sites: (net, wg)."""
    eps = rng.uniform(-50.0, 50.0, n)
    J = rng.uniform(-20.0, 20.0, (n, n))
    J = np.triu(J, 1)
    J = J + J.T
    if lossless:
        bd = LossBreakdown.zeros(n)
    else:
        bd = LossBreakdown(
            dephasing=rng.uniform(0.0, 5.0, n),
            ohmic=rng.uniform(0.0, 1.0, n),
            sink=rng.uniform(0.0, 2.0, n),
        )
    net = SiteNetwork(
        n_sites=n, epsilon=eps, coupling=J, loss=bd.total(), loss_breakdown=bd
    )
    n_ports = int(rng.integers(1, min(n, 2) + 1))
    sites = rng.choice(np.arange(1, n + 1), size=n_ports, replace=False)
    ports = tuple((int(s), float(rng.uniform(0.1, 5.0))) for s in sites)
    wg = WaveguideCoupling(ports=ports, v_g=float(rng.uniform(0.5, 2.0)))
    return net, wg


def single_emitter(epsilon=0.0, g=10.0, gamma=0.0, v_g=1.0):
    """One-site network probed through its only site."""
    bd = LossBreakdown(dephasing=[gamma], ohmic=[0.0], sink=[0.0])
    net = SiteNetwork(
        n_sites=1,
        epsilon=np.array([epsilon]),
        coupling=np.zeros((1, 1)),
        loss=bd.total(),
        loss_breakdown=bd,
    )
    wg = WaveguideCoupling(ports=((1, g),), v_g=v_g)
    return net, wg


def single_emitter_transmission(energy, epsilon, g, gamma, v_g=1.0):
    """Frozen closed-form transmission for one lossy emitter.

    t = (E - eps + i gamma/2) / (E - eps + i (gamma + Gamma)/2), with the
    induced width Gamma = 2 g^2 / v_g. Written out independently of the
    package solvers so it can serve as an oracle.
    """
    delta = energy - epsilon
    big_gamma = 2.0 * g * g / v_g
    t = (delta + 0.5j * gamma) / (delta + 0.5j * (gamma + big_gamma))
    return abs(t) ** 2
