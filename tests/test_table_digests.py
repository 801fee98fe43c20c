"""Golden digests of every registered scheme's routing tables.

Table construction is pure and deterministic, so a rewrite of the
builders (per-destination kernels, carried link ids) must leave every
``pair -> alternatives`` entry byte-identical.  This suite pins the
sha-256 of the canonical listing

    (pair, [([(leg_switches, leg_links), ...], itb_hosts), ...])

for every registered scheme on six fabrics at ``root=0,
max_routes_per_pair=10`` (plus, for ``itb``, the fewest-ITBs-first
order, built through :func:`~repro.routing.itb.build_itb_routes` with
``sort_by_itbs=True``: no registered scheme sorts).
The header of the listing carries the table's root and the
orientation's ``up_end`` so a changed tree shows up too.  The same
matrix is where deadlock freedom is proved for every shipped scheme:
each case's tables must pass :meth:`RoutingTables.validate`.

The constants were captured on the commit *before* the per-destination
table builders landed; regenerate them only for an intentional change
of the tables themselves::

    PYTHONPATH=src python tests/test_table_digests.py --regen
"""

import functools
import hashlib

import pytest

from repro.routing import (SCHEMES, RoutingTables, build_itb_routes,
                           build_spanning_tree, compute_tables,
                           orient_links)
from repro.routing.routes import route_switches
from repro.topology import build

#: label -> (registered topology, builder kwargs)
FABRICS = {
    "torus-8x8": ("torus", {}),
    "torus-express": ("torus-express", {}),
    "cplant": ("cplant", {}),
    "mesh-8x8": ("mesh", {}),
    "irregular": ("irregular", {}),
    "torus-4x4-h2": ("torus", {"rows": 4, "cols": 4, "hosts_per_switch": 2}),
}

@functools.lru_cache(maxsize=None)
def _graph(fabric: str):
    name, kwargs = FABRICS[fabric]
    return build(name, **kwargs)


def _tables(fabric: str, scheme: str, sort_by_itbs: bool = False):
    g = _graph(fabric)
    if not sort_by_itbs:
        return compute_tables(g, scheme, root=0, max_routes_per_pair=10)
    # the itb scheme's own steps, with its alternatives sorted
    ud = orient_links(g, 0, build_spanning_tree(g, 0))
    return RoutingTables(scheme, 0, ud, build_itb_routes(
        g, ud, max_routes_per_pair=10, sort_by_itbs=True))


def table_digest(tables, g) -> str:
    listing = [(tables.root, tables.orientation.up_end)]
    for pair in sorted(tables.routes):
        listing.append((pair, [
            (list(zip(route_switches(g, pair[0], route),
                      (tuple(h >> 1 for h in leg) for leg in route[2:]))),
             route[1])
            for route in tables.routes[pair]]))
    return hashlib.sha256(repr(listing).encode()).hexdigest()


def cases():
    """Every (fabric, scheme, sort_by_itbs) the scheme supports."""
    out = []
    for fabric in FABRICS:
        for name, scheme in SCHEMES.items():
            if not scheme.supports(_graph(fabric)):
                continue
            out.append((fabric, name, False))
            if name == "itb":
                out.append((fabric, name, True))
    return out


def _key(fabric: str, scheme: str, sort_by_itbs: bool) -> str:
    return f"{fabric}/{scheme}" + ("/sorted" if sort_by_itbs else "")


GOLDEN = {
    'torus-8x8/itb':
        '74b98d1224669b959e957fdc84b5ffe5ec95b3a364bd24aced1fa5f60d30fe46',
    'torus-8x8/itb/sorted':
        'dd796cb48a59931e69391c1fe3dd4df2c2059d0a4ee4ac608368e4df8f55c5a0',
    'torus-8x8/outflank':
        '5b2acc7ae62653027603e112661cc01eda0a536310006528d06cd5bbbde1369d',
    'torus-8x8/updown':
        '609742e2b55c3ef0554754487a233f81ef67b682d42dced341f7993a8941c035',
    'torus-8x8/updown-opt':
        '609742e2b55c3ef0554754487a233f81ef67b682d42dced341f7993a8941c035',
    'torus-express/itb':
        'b59f028baff067cc7a5522866cbe47a91a4e458b3e65d6b233f9302679a32e4e',
    'torus-express/itb/sorted':
        '8b527284c96f155f3f3fa24f068c00106459b67da7b88b9e7cdde0d8f3ff8a09',
    'torus-express/outflank':
        '96747e7dd6b9d824915308042b95dbf153c68e1abec6123b1d3629f8b83082a9',
    'torus-express/updown':
        'e0c4b573b26b7cf95c1a04eb172c62b8c06a727db3c423ef6b80ca92c36dfb0a',
    'torus-express/updown-opt':
        'e0c4b573b26b7cf95c1a04eb172c62b8c06a727db3c423ef6b80ca92c36dfb0a',
    'cplant/itb':
        'bb368b38cb241ac2ea477ebe88098b31005d9a7898d3cf8fd92fa576ff92fac9',
    'cplant/itb/sorted':
        'e98a65ddb41eac9da240b4100a1b984f789e97b9201bc9d4f58719932f063243',
    'cplant/updown':
        '7d5b616e4f9d5a398f34789e3032abfd38f68e63b72a45fcb73a23365bbc1f0f',
    'cplant/updown-opt':
        '9491fd560bdbeaa27f58b4c095263eed7c9a0e1737ecd53be107518665ac03aa',
    'mesh-8x8/dor':
        '57910e673a0c4b49abbedda1ad590a755e131d579f4a2d5e9e74c1f2f7439556',
    'mesh-8x8/itb':
        'a0cfd34a956a544102d7ed39856d08e2f9c27975fcc3db6bdd4fd941a6d18518',
    'mesh-8x8/itb/sorted':
        'e95f41c48d88071d93d94e4c1f3750731bb231da955d77ce57dbee6c1fb5d891',
    'mesh-8x8/outflank':
        '3c01c734910414b87affff5973910c3df13a7399354ebabe355154657311961f',
    'mesh-8x8/updown':
        '2f7cc336ea5af25c977d7dc130b8c1fb6baaf6db0327a341cd8c32ff36c7f637',
    'mesh-8x8/updown-opt':
        '43c6417256a9552d84a746d88c102b5595e94919fe97619b29d3b2832a8e4da9',
    'irregular/itb':
        '30ef1a341e369d6fdcf78b1e3e52109a461b80a054bc6f37a4bb0aa33181baa6',
    'irregular/itb/sorted':
        'bd225fd225d62405d14429291db9ddc06da889f7f3f2138774c8d73f7814d2c2',
    'irregular/updown':
        '3de379e76c0416c8b137a7f4dfd382eeab46125374ce9ef764c03920b23e3908',
    'irregular/updown-opt':
        '3de379e76c0416c8b137a7f4dfd382eeab46125374ce9ef764c03920b23e3908',
    'torus-4x4-h2/itb':
        'c1c9cabb1df77150b3b86e28761ee2394172b2af54d4067e3a46422898e99689',
    'torus-4x4-h2/itb/sorted':
        'e4c0fcfd1d9022936ddb009e1f5130d647cdc9b17baf2621deac40a74e63375d',
    'torus-4x4-h2/outflank':
        'be32dc4ca32eee12daf4402df6913dcc9588d2b2010b7ac1ddf21d0f324a9a76',
    'torus-4x4-h2/updown':
        'd15731b6b2af1bfaa3f78259cb9a3e71f8bec42f9be6fde448413d6eec70ad1e',
    'torus-4x4-h2/updown-opt':
        'd15731b6b2af1bfaa3f78259cb9a3e71f8bec42f9be6fde448413d6eec70ad1e',
}


#: collected once at import, when only the shipped schemes are registered
CASES = cases()


@pytest.mark.parametrize("fabric,scheme,sort_by_itbs", CASES,
                         ids=[_key(*c) for c in CASES])
def test_table_digest(fabric, scheme, sort_by_itbs):
    tables = _tables(fabric, scheme, sort_by_itbs)
    assert (table_digest(tables, _graph(fabric))
            == GOLDEN[_key(fabric, scheme, sort_by_itbs)])
    # structurally sound, and no cyclic channel dependency
    tables.validate(_graph(fabric))


def test_every_registered_scheme_is_pinned():
    assert {_key(*c) for c in CASES} == set(GOLDEN)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint
    import sys

    if "--regen" in sys.argv:
        pprint.pprint({_key(*c): table_digest(_tables(*c), _graph(c[0]))
                       for c in CASES},
                      sort_dicts=False)
