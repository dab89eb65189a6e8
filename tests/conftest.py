"""Shared builders for the test suite."""
import numpy as np

from hra_forge.dataset import Instance, ObservationSet
from hra_forge.psf import Probability, PsfVector

# raw upper bounds per PSF column, matching the bundled observation set
RAW_MAXIMA = (10.0, 5.0, 5.0, 3.0, 50.0, 10.0, 5.0, 5.0)


def planted_observations(n=48, seed=7):
    """Synthetic observations whose HEP depends on PSFs A and D only.

    The generator is smooth and noise free so the surface the network
    learns has no real signal along the other six inputs.
    """
    rng = np.random.default_rng(seed)
    frac = rng.uniform(0.05, 1.0, size=(n, 8))
    raw = frac * np.array(RAW_MAXIMA)
    heps = 0.05 + 0.25 * frac[:, 0] + 0.15 * frac[:, 3] + 0.20 * frac[:, 0] * frac[:, 3]
    instances = tuple(
        Instance(
            id=f"S{i + 1}",
            psfs=PsfVector.from_sequence(raw[i]),
            observed_hep=Probability(float(heps[i])),
            trials=None,
        )
        for i in range(n)
    )
    return ObservationSet(instances)


def count_calls(monkeypatch, names, *modules):
    """Count calls to the functions ``names`` of ``modules[0]``.

    Every module in ``modules`` gets the same counting wrapper, so calls
    made through a name imported into another module count too. Returns
    the dict of counts, which fills as the wrapped functions run.
    """
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(modules[0], name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    return calls
