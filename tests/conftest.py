import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from isatraits import generate_synthetic_endian, generate_synthetic_fixedwidth
from isatraits.features import FeatureConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
CPUREC_LABELS = REPO_ROOT / "labels" / "cpurec.csv"


# The feature a model fitted on hand-made rows records; fit and predict
# read only the matrix, whatever feature its columns are said to be.
FEATURE = FeatureConfig("endsig")


def matrix(rows):
    """rows as the float64 (samples x features) matrix fit and predict take."""
    return np.array(rows, dtype=np.float64)


@pytest.fixture(scope="session")
def endian_small():
    return generate_synthetic_endian(isa_count_per_class=3, files_per_isa=4, file_len=2048, seed=5)


@pytest.fixture(scope="session")
def fixedwidth_small():
    return generate_synthetic_fixedwidth(
        widths_bits=[16, 32], isas_per_width=2, files_per_isa=3,
        file_len=2048, variable_isas=2, seed=5,
    )


@pytest.fixture(scope="session")
def cpurec_labels_path():
    return CPUREC_LABELS
