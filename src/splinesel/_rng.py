"""Counter-based random streams for reproducible replicate draws.

Every Monte Carlo draw in the package is keyed by (seed, n, replicate) so any
single record can be regenerated in isolation and results do not depend on
the order in which replicates are drawn.  spectral_blocks, the package's one
caller of replicate_block, draws them in spectral coordinates, z = g + eps.
"""

import numpy as np

from .spectrum import BLOCK_ROWS


def replicate_block(seed: int, n: int, start: int, stop: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal rows for replicates start..stop-1, one row each.

    Philox is counter-based: replicate r of size n owns the stream at counter
    [0, 0, n, r] under key seed, so distinct (n, replicate) pairs never
    overlap.  One generator serves the whole block; before each row its
    state is reset to that counter with an empty buffer, which makes row r
    exactly the stream a fresh Philox(key=seed, counter=[0, 0, n, r]) would
    give.  Rows are written into out when given (shape (stop - start, width),
    C-contiguous), else into a new (stop - start, n) array.
    """
    if out is None:
        out = np.empty((stop - start, n))
    bits = np.random.Philox(key=seed)
    gen = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    counter[2] = n
    for row, r in zip(out, range(start, stop)):
        counter[3] = r
        bits.state = state
        gen.standard_normal(out=row)
    return out


def replicate_normals(seed: int, n: int, replicate: int, size: int) -> np.ndarray:
    """Standard-normal vector for one replicate: a block of one row."""
    return replicate_block(seed, n, replicate, replicate + 1, out=np.empty((1, size)))[0]


def spectral_blocks(seed: int, n: int, replicates: int, g: np.ndarray):
    """Spectral data z = g + eps of replicates 0..replicates-1, BLOCK_ROWS
    rows at a time: yields (start, z) with row i of z the replicate
    start + i, and eps its replicate_block row.  Every block is drawn into
    one reused buffer, so z is valid only until the next block is asked for.
    """
    buf = np.empty((min(BLOCK_ROWS, replicates), n))
    for start in range(0, replicates, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, replicates)
        z = replicate_block(seed, n, start, stop, out=buf[:stop - start])
        z += g
        yield start, z
