import numpy as np
import pytest

from schatlab.centralizers import spec_to_doc
from schatlab.experiments import parse_config, run_experiment

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def splitting_rows(spec, dims, seed, samples, p, q, side="left", tag="ginibre"):
    """The rows of one ``splitting`` experiment of ``spec``."""
    return run_experiment(parse_config({
        "experiment": "splitting", "spec": spec_to_doc(spec), "dims": dims, "seed": seed,
        "samples": samples, "p": p, "q": q, "side": side, "tag": tag}))["rows"]


def complex_matrix(rng, rows, cols=None):
    cols = rows if cols is None else cols
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z / np.sqrt(2.0)


def complex_vector(rng, n, unit=False):
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return z / np.linalg.norm(z) if unit else z


def gapped_matrix(rng, n, base=3.0, step=0.5):
    """Matrix with well separated singular values and Haar frames."""
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    s = base - step * np.arange(n) + rng.uniform(0.0, step / 8, n)
    s = np.sort(np.abs(s))[::-1]
    return (u * s) @ v.conj().T


def haar_unitary(rng, n):
    q, r = np.linalg.qr(complex_matrix(rng, n))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


@pytest.fixture
def small_chunks(monkeypatch):
    """Estimators score chunks of 2**10 entries, so the sample counts of
    the chunk-edge tests cross an edge without the cost of larger ones."""
    import schatlab.metrology as metrology

    monkeypatch.setattr(metrology, "CHUNK_ENTRIES", 2**10)
    return metrology.CHUNK_ENTRIES
