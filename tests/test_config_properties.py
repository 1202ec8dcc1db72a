"""Every config key loads a value or refuses it naming ``[section] key``, and nothing else.

Only ``Config`` runs: a command would act on the values that load, and a
huge ``n_speakers``, say, is a valid request to allocate that much.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from svkit import cli
from svkit.errors import ConfigError

# the values at the edge of every type and range
BOUNDARY = ["0", "-1", "1e300", "10000000000", "nan", "inf", "", "word"]


def _boundary_examples(test):
    for value in BOUNDARY:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("section, key", list(cli._KEYS))
@settings(max_examples=15, deadline=None)
@_boundary_examples
@given(value=st.text(max_size=12))
def test_a_value_loads_or_is_refused_naming_its_key(section, key, value):
    try:
        cfg = cli.Config(None, [f"{section}.{key}={value}"])
    except ConfigError as exc:
        assert f"[{section}] {key}" in str(exc)
    else:
        # the resolved copy keeps the text as given
        assert cfg.get(section, key) == value
