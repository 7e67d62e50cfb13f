"""Golden ledgers: pinned digests of the instant-build (sync) books.

``builds=None`` means instant builds.  The digests below were computed
by the simulator's former, separate synchronous epoch loop, before it
was folded into the single loop; they are the reference that one loop must keep reproducing byte for
byte: the rendered ledger and the ``repr`` of every record (cache
counters included) for the drifting, drifting + market, multi-tenant,
elastic and stochastic presets, each under never/regret/arbitrage
where the preset can quote a market.  Multi-tenant cases digest the
fleet ledger plus every tenant ledger, so the per-tenant attribution
is pinned too.

To re-derive a digest, run the case by hand and hash
``ledger.render()`` and ``repr(ledger.records)``; a mismatch means the
books changed, which this suite exists to forbid.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.simulate import (
    ArbitrageAware,
    default_market,
    drifting_sales_simulator,
    make_policy,
    multi_tenant_sales_simulator,
    stochastic_sales_simulator,
)
from repro.simulate.presets import elastic_multi_tenant_simulator

ROWS = 4_000


def _policy(name):
    if name == "arbitrage":
        return ArbitrageAware(make_policy("regret"), horizon=4, hysteresis=1)
    return make_policy(name)


def _market(policy):
    return default_market() if policy == "arbitrage" else None


def _drifting(policy, market=False):
    return drifting_sales_simulator(
        n_epochs=19,
        n_rows=ROWS,
        market=default_market() if market else None,
    )


def _multi_tenant(policy):
    return multi_tenant_sales_simulator(
        n_tenants=2, n_epochs=17, n_rows=ROWS, market=_market(policy)
    )


def _multi_tenant_even(policy):
    return multi_tenant_sales_simulator(
        n_tenants=3,
        n_epochs=17,
        n_rows=ROWS,
        attribution="even",
        market=_market(policy),
    )


def _elastic(policy):
    return elastic_multi_tenant_simulator(
        n_tenants=2, n_epochs=10, n_rows=ROWS, seed=5, market=_market(policy)
    )


def _stochastic(policy):
    return stochastic_sales_simulator(
        generator="mixed",
        n_epochs=12,
        n_rows=ROWS,
        seed=7,
        market=_market(policy),
    )


PRESETS = {
    "drifting": _drifting,
    "drifting+market": lambda policy: _drifting(policy, market=True),
    "multi-tenant": _multi_tenant,
    "multi-tenant-even": _multi_tenant_even,
    "elastic": _elastic,
    "stochastic": _stochastic,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ledger_digests(ledger):
    """``(render digest, records digest)`` of a ledger.

    A fleet ledger's records digest covers the fleet records and then
    every tenant ledger's records, in roster order.
    """
    tenants = getattr(ledger, "tenants", None)
    if tenants is None:
        records = repr(ledger.records)
    else:
        records = repr(ledger.fleet.records) + "".join(
            f"\n{name}:{tenant.records!r}"
            for name, tenant in tenants.items()
        )
    return _sha(ledger.render()), _sha(records)


#: (preset, policy) -> (render sha256, records sha256).
GOLDEN = {
    ("drifting", "never"): (
        "decb42a5100d109e8eabfcc4eddf391a696ba60c5d452c306fb8f1b10e164c63",
        "4ab8da44c51f4ab9254f993b9e56a31cc060f2264fd74b2d9fabb75758e42706",
    ),
    ("drifting", "regret"): (
        "d42b743aa08888b80322ea466c60f64a448adec5cb78bfaa78abda5e1928f5e8",
        "4a19e213b3b9db17eae40375721057c84646ea24bd1ff85776ca365b9213e195",
    ),
    ("drifting+market", "never"): (
        "decb42a5100d109e8eabfcc4eddf391a696ba60c5d452c306fb8f1b10e164c63",
        "4ab8da44c51f4ab9254f993b9e56a31cc060f2264fd74b2d9fabb75758e42706",
    ),
    ("drifting+market", "regret"): (
        "d42b743aa08888b80322ea466c60f64a448adec5cb78bfaa78abda5e1928f5e8",
        "4a19e213b3b9db17eae40375721057c84646ea24bd1ff85776ca365b9213e195",
    ),
    ("drifting+market", "arbitrage"): (
        "754ddeae9111e811091916a534aa7d19ff35bb34e3fbac7b0fb983ee2ffce74f",
        "0c1991d933a068f9ea32e81c69fcedfd75fcf1fbac8df70fc2f7ffe16a87d618",
    ),
    ("multi-tenant", "never"): (
        "fe1ba6c112461b008476bf6eb46e079e06bf50d930ebd29d1ded838ae9b5073c",
        "f03544eaa737c9a9423ffe41fde3be20c061c2890b316761bdf62c271e79d778",
    ),
    ("multi-tenant", "regret"): (
        "3eb6c3981ffcbeabd9d097b7babc735086d6328e7b3c67d7a9249f8469c9767e",
        "519924c5adc352acd5b548fa5eaed35584a7c131cee0000ef90e5e071db16fe3",
    ),
    ("multi-tenant", "arbitrage"): (
        "d8afb8de0021151aa7f5658d5027e6101daec29f3d0103b132d02252a7f5abfe",
        "684e967cfded7fe943cd705ff686839522c8a4d9e9907529a26ca4566be29496",
    ),
    ("multi-tenant-even", "regret"): (
        "17279372b8c296ea25a3913230f16b77519bade5ddccbf8e2db94c0fa22c0674",
        "fd313125989660a2dc45fa052246d162fe559fc41b3c2c0179156b62588a9244",
    ),
    ("elastic", "never"): (
        "d9a3efe7088640d4ced461af56d1f780a87df1c218b5215f7156c1988be0fc57",
        "5217b75acc613132a9c8d2dbe8083f417e76fd182313c4dbfc7d5160a13a8f41",
    ),
    ("elastic", "regret"): (
        "94ec07769f2a56c9c53aa23f82037d9b03d43d119db6f0c4932663853086e47b",
        "ea0567df3254634d31ff0c88ee57f45ef7c1dc86b7d746b93ab7dab1fd034c20",
    ),
    ("elastic", "arbitrage"): (
        "ba9cc9f3bc05e96d4798d8abe4f6ffc46d3aa150fdeede258bd30a6a177d77bc",
        "67af769dcb5dc6e6f924812139b8a0ffe7f46217f556dcabf6f4d96f35128f8f",
    ),
    ("stochastic", "never"): (
        "272d533e3170d855ce61bb6f40568a593a579376e21a654c6b6da61bb5cba109",
        "e338f0784b42eb92214c6e02c09b42e6d97b0728747661bdd4d971653deee2d0",
    ),
    ("stochastic", "regret"): (
        "aafa875537e75ead2269509c26c86220cb8b528e45ec2334d50f00663dee7f98",
        "daed3c06d853ee536d8262fba0df96a0018930e03bb2c64658a356c19144edb2",
    ),
    ("stochastic", "arbitrage"): (
        "c549e3775a643b0234a6c6b062a63a61bf9b566ef5197ac77440522c3d24a44d",
        "ec0142d6801e8dcb3f04e5c3228c180fe4789b5fcc6a5fed4b89599e89835099",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_instant_ledgers_match_the_pinned_digests(case):
    preset, policy = case
    ledger = PRESETS[preset](policy).run(_policy(policy))
    assert ledger_digests(ledger) == GOLDEN[case]
