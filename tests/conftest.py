import pytest

from firstloss import FeeStructure, HaraParams, MarketParams, selection


@pytest.fixture(scope="session")
def base_market() -> MarketParams:
    return MarketParams(r=0.02, gamma=0.40, horizon_T=1.0, v0=1.0, sigma=0.20)


@pytest.fixture(scope="session")
def base_manager() -> HaraParams:
    return HaraParams(a=0.3, b=0.65)


@pytest.fixture(scope="session")
def base_investor() -> HaraParams:
    return HaraParams(a=0.3, b=0.65)


def fee_pct(m: float, alpha: float, c: float) -> FeeStructure:
    """Fee from percent coordinates, as quoted in tables."""
    return FeeStructure(m / 100.0, alpha / 100.0, c / 100.0)


def failing_cell(monkeypatch, error):
    """Make selection.run_pipeline raise error in the cell r = 0.03 and run
    the others."""
    real = selection.run_pipeline

    def run(market, *args):
        if market.r == 0.03:
            raise error
        return real(market, *args)

    monkeypatch.setattr(selection, "run_pipeline", run)
