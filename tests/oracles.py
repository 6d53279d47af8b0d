"""Single-estimate scorers the tests use as oracles, on the metrics
module's own kernels: SI-SDR of one estimate, and the SDR/SIR/SAR
decomposition of one estimate against a reference set. The package scores
through ``metrics.si_sdri``, which runs the same kernels on signals it has
already cropped and zero-meaned."""

import numpy as np

from masksep.metrics import _bss_prepped, _prep, _si_sdr_prepped


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR in dB. No temporal delay search."""
    e, r = _prep(est, ref)
    if float(np.dot(r, r)) == 0.0:
        raise ValueError("reference has zero energy; guard upstream")
    return _si_sdr_prepped(e, r)


def bss_decompose(est, refs, target_index: int):
    """(SDR, SIR, SAR) of an estimate against a reference set.

    The target part is the scalar projection onto the chosen reference;
    interference is the rest of the projection onto span{refs}; artifacts
    are whatever lies outside that span.
    """
    if not 0 <= target_index < len(refs):
        raise ValueError(f"target index {target_index} out of range")
    prepped = _prep(est, *refs)
    return _bss_prepped(prepped[0], prepped[1:], target_index)
