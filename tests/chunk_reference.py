"""Per-round reference for the simulator's chunk accounting.

``_chunk_loop`` walks a chunk one round at a time through the transition
and award rules in the :mod:`selfishlab.simulator` docstring.  It handles
every accounting/variant combination and is far slower than the
simulator's loop-free path, which the tests pin to it bit for bit.
"""

import numpy as np


def _chunk_loop(a: np.ndarray, b: np.ndarray, tie: np.ndarray, gamma: float,
                accounting: str, variant: str) -> tuple[float, float, np.ndarray]:
    """Reference per-round loop; handles every accounting/variant combination."""
    full = accounting == "full"
    reset = variant == "reset"
    codes = (a.astype(np.int8) * 2 + b.astype(np.int8)).tolist()  # 2 up, 3 both, 1 down
    ties = tie.tolist()

    lead = 0
    pending_private = 0  # unpublished attacker blocks on the current fork
    pending_public = 0   # contested honest blocks on the current fork
    revenue_a = 0.0
    revenue_b = 0.0
    occupancy = [0] * 8

    for t, code in enumerate(codes):
        if lead >= len(occupancy):
            occupancy.extend([0] * (lead + 1 - len(occupancy)))
        occupancy[lead] += 1

        if lead == 0:
            if code == 2:
                lead, pending_private, pending_public = 1, 1, 0
            elif code == 3:
                if full:
                    if ties[t] < gamma:
                        revenue_a += 1.0
                    else:
                        revenue_b += 1.0
            elif code == 1 and full:
                revenue_b += 1.0
        else:
            if code == 2:
                lead += 1
                pending_private += 1
            elif code == 3:
                pending_private += 1
                pending_public += 1
            elif code == 1:
                if lead == 1:
                    pending_public += 1
                    if ties[t] < gamma:
                        revenue_a += float(pending_private) if full else 1.0
                    else:
                        revenue_b += float(pending_public) if full else 1.0
                    lead, pending_private, pending_public = 0, 0, 0
                elif lead == 2:
                    if reset:
                        revenue_a += float(pending_private)
                        lead, pending_private, pending_public = 0, 0, 0
                    else:
                        revenue_a += 2.0
                        lead, pending_private, pending_public = 1, 1, 0
                else:
                    lead -= 1
                    pending_public += 1
                    if not full:
                        revenue_a += 1.0

    while len(occupancy) > 1 and occupancy[-1] == 0:
        occupancy.pop()
    return revenue_a, revenue_b, np.asarray(occupancy, dtype=np.int64)
