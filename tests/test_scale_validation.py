"""One scale check for both front doors: the CLI's ``--scale`` and serve's ``scale``.

Every value here is rejected before any dataset work starts, so the tests
are instant: NaN, infinities and non-positive scales, and finite scales
whose scaled study sizes overflow (``1e308``).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.expression.datasets import check_scale
from repro.pipeline.batch import parse_scale
from repro.serve.handlers import (
    normalize_dataset_params,
    normalize_params,
    normalize_update_params,
)

BAD_SCALES = ["nan", "inf", "-inf", "0", "-1", "1e308", "abc"]
COMMANDS = [["datasets"], ["filter"], ["analyze"], ["serve"], ["figure", "fig04"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("scale", BAD_SCALES)
def test_cli_scale_is_a_usage_error(command, scale, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale" in err
    assert "Traceback" not in err


def test_cli_scale_accepts_aliases():
    parser_value = parse_scale("tiny")
    assert parser_value == 0.02
    assert main(["datasets", "--scale", "tiny"]) == 0


@pytest.mark.parametrize("scale", [1e308, 1.7e308, 1e300 * 1e8])
def test_overflowing_scale_rejected(scale):
    with pytest.raises(ValueError, match="overflows|finite"):
        check_scale(scale)
    with pytest.raises(ValueError):
        parse_scale(repr(scale))


def test_check_scale_passes_valid_scales():
    assert check_scale(0.15) == 0.15
    assert check_scale(2) == 2.0


@pytest.mark.parametrize("scale", [1e308, "1e308", 5e307])
def test_serve_overflowing_scale_is_bad_request(scale):
    for op in ("filter", "classify", "enrich"):
        with pytest.raises(ValueError, match="overflows"):
            normalize_params(op, {"scale": scale}, 0.02)
    with pytest.raises(ValueError, match="overflows"):
        normalize_dataset_params({"scale": scale}, 0.02)
    with pytest.raises(ValueError, match="overflows"):
        normalize_update_params({"scale": scale, "add_genes": 1}, 0.02)
