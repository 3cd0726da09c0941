"""Partial-SWAP readout as an amplitude-damping channel.

Coupling a register qubit to a fresh ancilla with SWAP^gamma and discarding
the ancilla damps the qubit: population leaks from |1> to |0> with
probability p = sin^2(pi*gamma/2) and coherences shrink by sqrt(1-p).  This
script checks the closed form against the channel implementation and shows
the purification of a repeatedly measured register.
"""
import numpy as np

from swapqrn import damping_channel, purity, ground_state
from swapqrn.gates import damping_probability

rng = np.random.default_rng(7)

print("damping probability p = sin^2(pi*gamma/2)")
for gamma in (0.1, 0.25, 0.5, 0.75, 1.0):
    print(f"  gamma={gamma:4.2f}  p={damping_probability(gamma):.6f}  "
          f"sin^2={np.sin(np.pi * gamma / 2) ** 2:.6f}")

print("\nsingle-qubit channel vs analytic form, random state, gamma=0.6")
g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
rho = g @ g.conj().T
rho /= np.trace(rho).real
p = damping_probability(0.6)
phi = np.pi * 0.6 / 2  # coherences also pick up a phase, not just sqrt(1-p)
damp = np.exp(-1j * phi) * np.sqrt(1.0 - p)
expected = np.array(
    [[rho[0, 0] + p * rho[1, 1], damp * rho[0, 1]],
     [np.conj(damp) * rho[1, 0], (1.0 - p) * rho[1, 1]]])
got = damping_channel(rho, 0.6)
print(f"  max |analytic - channel| = {np.max(np.abs(expected - got)):.2e}")

print("\nrepeated coupling purifies the register (gamma=0.5, start |1><1|)")
rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
for n in (1, 5, 10, 20, 30):
    state = rho.copy()
    for _ in range(n):
        state = damping_channel(state, 0.5)
    print(f"  n={n:3d}  rho11={state[1, 1].real:.3e}  "
          f"purity={purity(state):.12f}")
print("  rho11 halves every application: the register forgets exponentially.")

print("\ntwo-qubit register relaxes to the ground state as well (gamma=0.3)")
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
rho = g @ g.conj().T
rho /= np.trace(rho).real
state = rho.copy()
for _ in range(200):
    state = damping_channel(state, 0.3)
print(f"  max |state - ground| = "
      f"{np.max(np.abs(state - ground_state(2))):.2e}")
