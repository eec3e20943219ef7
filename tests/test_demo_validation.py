"""Demonstrations and configs are checked at the API boundary.

A cell reference outside the input tables must fail with a typed
:class:`~repro.errors.ExpressionError` before any search starts — through
``synthesize``, ``SynthesisSession`` and ``SynthesisService.submit`` alike
— never as an ``IndexError`` from inside evaluation, and never by Python's
negative indexing silently reading the last row.  Likewise a
``SynthesisConfig`` naming an unknown function or operator, or carrying a
negative budget or cap, fails at construction rather than mid-search or
silently.
"""

import asyncio

import pytest

from repro.errors import ExpressionError
from repro.lang.ast import Env
from repro.provenance.demo import Demonstration
from repro.provenance.expr import CellRef
from repro.serve import ServiceConfig, SynthesisService
from repro.synthesis import SynthesisConfig, SynthesisSession, synthesize
from repro.table.table import Table

SALES = Table.from_rows("sales", ["region", "amount"],
                        [["north", 10], ["south", 20], ["north", 5]])

BAD_REFS = {
    "row-past-end": CellRef("sales", 999, 0),
    "col-past-end": CellRef("sales", 0, 99),
    "negative-row": CellRef("sales", -1, 0),
    "unknown-table": CellRef("returns", 0, 0),
}


def _demo(bad: CellRef) -> Demonstration:
    return Demonstration.of([[CellRef("sales", 0, 0), bad]])


@pytest.mark.parametrize("bad", BAD_REFS.values(), ids=BAD_REFS.keys())
def test_validate_rejects_refs_outside_env(bad):
    with pytest.raises(ExpressionError, match="demonstration cell"):
        _demo(bad).validate(Env.of(SALES))


def test_validate_accepts_refs_inside_env():
    demo = Demonstration.of([[CellRef("sales", 2, 1), CellRef("sales", 0, 0)]])
    SynthesisSession([SALES], demo)      # no error


@pytest.mark.parametrize("bad", BAD_REFS.values(), ids=BAD_REFS.keys())
def test_synthesize_rejects_before_search(bad):
    with pytest.raises(ExpressionError):
        synthesize([SALES], _demo(bad),
                   config=SynthesisConfig(max_visited=50))


@pytest.mark.parametrize("bad", BAD_REFS.values(), ids=BAD_REFS.keys())
def test_session_rejects_at_construction(bad):
    with pytest.raises(ExpressionError):
        SynthesisSession([SALES], _demo(bad))


@pytest.mark.parametrize("bad", BAD_REFS.values(), ids=BAD_REFS.keys())
def test_service_rejects_before_admission(bad):
    async def main():
        config = ServiceConfig(pool_size=1, pool_backend="threads",
                               max_requests=1)
        async with SynthesisService(config) as svc:
            # The one admission slot is taken, so only a check that runs
            # before admission can raise ExpressionError instead of
            # ServiceOverloaded.
            live = svc.submit([SALES], Demonstration.of(
                [[CellRef("sales", 0, 0)]]), SynthesisConfig(max_visited=50))
            with pytest.raises(ExpressionError):
                svc.submit([SALES], _demo(bad),
                           SynthesisConfig(max_visited=50))
            await live.result()

    asyncio.run(main())


BAD_CONFIGS = {
    "unknown-analytic": dict(analytic_functions=("nope",)),
    "unknown-aggregate": dict(aggregate_functions=("nope",)),
    "unknown-arithmetic": dict(arithmetic_functions=("nope",)),
    "unknown-comparison": dict(comparison_ops=("~",)),
    "negative-max-visited": dict(max_visited=-5),
    "negative-timeout": dict(timeout_s=-1.0),
    "negative-key-cols": dict(max_key_cols=-1),
    "negative-sort-cols": dict(max_sort_cols=-1),
}


@pytest.mark.parametrize("overrides", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_config_rejects_bad_values(overrides):
    field = next(iter(overrides))
    with pytest.raises(ValueError, match=field):
        SynthesisConfig(**overrides)
    with pytest.raises(ValueError, match=field):
        SynthesisConfig().replace(**overrides)
