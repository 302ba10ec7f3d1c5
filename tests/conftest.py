import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def int_max_str_digits():
    """``sys.set_int_max_str_digits``, with the interpreter's int-to-str digit
    limit put back after the test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
