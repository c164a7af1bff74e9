import numpy as np
import pytest

from finray import mesh_model, sensing_sim
from finray.fem_core import MaterialModel, precompute_compliance
from finray.fixtures import canonical_jaw
from finray.sensing_sim import cached_system


@pytest.fixture(scope="session")
def jaw():
    return canonical_jaw()


@pytest.fixture(scope="session")
def system(jaw):
    return cached_system(jaw.mesh, MaterialModel())


@pytest.fixture(scope="session")
def compliance(jaw, system):
    return precompute_compliance(system, jaw.keypoint_ids, jaw.candidate_ids)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def fresh_caches(monkeypatch):
    """Empty process-wide registries of containment grids and stiffness
    systems for one test, so that its counts start at zero; the shared
    entries come back after it."""
    monkeypatch.setattr(mesh_model, "_GRIDS", {})
    monkeypatch.setattr(sensing_sim, "_SYSTEM_CACHE", {})
