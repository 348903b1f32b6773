import pytest

from ne_translit.decoder import Fallback
from ne_translit.errors import ConfigError
from ne_translit.pipeline import PipelineConfig
from ne_translit.settings import check


@pytest.mark.parametrize(
    "key, value, parsed",
    [
        ("top_k", "3", 3),
        ("top_k", 3, 3),
        ("em_iterations", " 12 ", 12),
        ("kb_persons", "Off", False),
        ("kb_persons", True, True),
        ("fallback", "copy", Fallback.COPY_SOURCE),
        ("fallback", Fallback.UNK_MARKER, Fallback.UNK_MARKER),
        ("smoothing_k", "0.5", 0.5),
        ("smoothing_k", 0, 0.0),
    ],
)
def test_check_takes_the_text_or_a_typed_value(key, value, parsed):
    result = check(key, value)
    assert (result, type(result)) == (parsed, type(parsed))


@pytest.mark.parametrize(
    "key, value",
    [
        ("top_k", 2.9),
        ("top_k", True),
        ("top_k", "0"),
        ("top_k", None),
        ("em_iterations", 3.7),
        ("kb_persons", 1),
        ("kb_persons", "maybe"),
        ("kb_persons", None),
        ("fallback", "bogus"),
        ("smoothing_k", "abc"),
        ("smoothing_k", None),
    ],
)
def test_check_names_the_key_of_a_bad_value(key, value):
    with pytest.raises(ConfigError) as excinfo:
        check(key, value)
    assert str(excinfo.value) == f"bad value for {key!r}: {value!r}"


def test_pipeline_config_parses_its_settings():
    config = PipelineConfig(fallback="copy", top_k="3", kb_persons="false")
    assert (config.fallback, config.top_k, config.kb_persons) == (Fallback.COPY_SOURCE, 3, False)
    with pytest.raises(ConfigError, match="bad value for 'top_k': 2.9"):
        PipelineConfig(top_k=2.9)
