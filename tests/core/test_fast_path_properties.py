"""Property tests: the synthesis sweep's O(1) and incremental queries
against the linear scans and whole-graph checks they stand in for.

* ``CommunicationSpec.bandwidth_between`` / ``core_bandwidth`` answer
  from an index built once; they must equal a scan of ``spec.flows``
  bit for bit, repeated flows and both directions included.
* ``repro.core.synthesis.would_deadlock`` tests only what the added
  dependency edges can reach; its verdict and the CDG it leaves must
  match a whole-graph ``nx.find_cycle`` after every route.
* The floorplan legalizer's ``fits`` / ``spacing_bounds`` pair must agree
  with ``Block.overlaps``, including blocks exactly one margin apart.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.spec import CommunicationSpec, CoreSpec, FlowSpec
from repro.core.synthesis import would_deadlock
from repro.physical.floorplan import Block, fits, spacing_bounds

CORES = ("a", "b", "c", "d", "e")


# ----------------------------------------------------------------------
# Spec traffic index
# ----------------------------------------------------------------------
_flows = st.lists(
    st.tuples(
        st.sampled_from(CORES),
        st.sampled_from(CORES),
        st.floats(0.001, 5000.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda f: f[0] != f[1]),
    max_size=25,
)


class TestSpecIndex:
    @given(flows=_flows)
    @settings(max_examples=200, deadline=None)
    def test_lookups_equal_linear_scans(self, flows):
        spec = CommunicationSpec(
            [CoreSpec(c) for c in CORES],
            [FlowSpec(s, d, bw) for s, d, bw in flows],
        )
        for a in CORES:
            scan = sum(
                f.bandwidth_mbps for f in spec.flows
                if a in (f.source, f.destination)
            )
            assert repr(spec.core_bandwidth(a)) == repr(scan)
            for b in CORES:
                scan = sum(
                    f.bandwidth_mbps for f in spec.flows
                    if (f.source, f.destination) in ((a, b), (b, a))
                )
                assert repr(spec.bandwidth_between(a, b)) == repr(scan)

    def test_repeated_flows_and_self_pair(self):
        spec = CommunicationSpec(
            [CoreSpec("a"), CoreSpec("b")],
            [FlowSpec("a", "b", 0.1), FlowSpec("b", "a", 0.2),
             FlowSpec("a", "b", 0.3)],
        )
        assert spec.bandwidth_between("a", "b") == 0.1 + 0.2 + 0.3
        assert spec.bandwidth_between("b", "a") == 0.1 + 0.2 + 0.3
        assert spec.bandwidth_between("a", "a") == 0
        assert spec.core_bandwidth("b") == 0.1 + 0.2 + 0.3


# ----------------------------------------------------------------------
# Incremental channel-dependency check
# ----------------------------------------------------------------------
def _would_deadlock_whole_graph(cdg, links) -> bool:
    """The whole-graph check: add, look for any cycle, roll back."""
    added_nodes = [l for l in links if l not in cdg]
    added_edges = [
        (a, b) for a, b in zip(links, links[1:]) if not cdg.has_edge(a, b)
    ]
    cdg.add_edges_from(added_edges)
    for l in links:
        cdg.add_node(l)
    try:
        nx.find_cycle(cdg)
        cyclic = True
    except nx.NetworkXNoCycle:
        cyclic = False
    if cyclic:
        cdg.remove_edges_from(added_edges)
        cdg.remove_nodes_from([n for n in added_nodes if cdg.degree(n) == 0])
    return cyclic


# A route is a walk over a few nodes; its links are consecutive node
# pairs, so walks can revisit links and close cycles on their own.
_walk = st.lists(st.sampled_from(CORES), min_size=3, max_size=7).filter(
    lambda w: all(a != b for a, b in zip(w, w[1:]))
)


class TestIncrementalDeadlockCheck:
    @given(walks=st.lists(_walk, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_graph_find_cycle(self, walks):
        fast, whole = nx.DiGraph(), nx.DiGraph()
        for walk in walks:
            links = list(zip(walk, walk[1:]))
            assert would_deadlock(fast, links) == \
                _would_deadlock_whole_graph(whole, links)
            assert sorted(fast.nodes) == sorted(whole.nodes)
            assert sorted(fast.edges) == sorted(whole.edges)
            assert nx.is_directed_acyclic_graph(fast)

    def test_cycle_through_two_added_edges_is_rejected(self):
        cdg = nx.DiGraph()
        assert not would_deadlock(cdg, [("x", "y"), ("y", "z")])
        # (z, w) -> (w, x) -> (x, y) -> (y, z) -> (z, w): closed only by
        # the second route's two new edges together.
        assert would_deadlock(
            cdg, [("y", "z"), ("z", "w"), ("w", "x"), ("x", "y")]
        )
        assert sorted(cdg.edges) == [(("x", "y"), ("y", "z"))]


# ----------------------------------------------------------------------
# Legalization predicate
# ----------------------------------------------------------------------
_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_size = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)
_margin = st.sampled_from([0.0, 0.02, 0.1, 0.3])


@st.composite
def _block_pairs(draw):
    """A candidate and a placed block; often exactly one margin apart
    (or touching) on some side, the boundary the test must get right."""
    margin = draw(_margin)
    x, y, w, h = draw(_coord), draw(_coord), draw(_size), draw(_size)
    ow, oh = draw(_size), draw(_size)
    side = draw(st.sampled_from(["free", "left", "right", "below", "above"]))
    ox, oy = draw(_coord), draw(_coord)
    if side == "right":  # placed block starts one margin right of it
        ox = x + w + margin
    elif side == "left":
        ox = x - ow - margin
    elif side == "above":
        oy = y + h + margin
    elif side == "below":
        oy = y - oh - margin
    return margin, (x, y, w, h), Block("o", ow, oh, ox, oy)


class TestLegalizationPredicate:
    @given(pair=_block_pairs())
    @settings(max_examples=400, deadline=None)
    def test_fits_agrees_with_overlaps(self, pair):
        margin, (x, y, w, h), other = pair
        candidate = Block("c", w, h, x, y)
        assert fits(x, y, w, h, margin, [spacing_bounds(other, margin)]) == \
            (not candidate.overlaps(other, margin=margin))

    def test_exactly_one_margin_apart_fits(self):
        other = Block("o", 1.0, 1.0, 0.0, 0.0)
        bounds = [spacing_bounds(other, 0.02)]
        assert fits(1.02, 0.0, 0.3, 0.3, 0.02, bounds)
        assert not fits(1.01, 0.0, 0.3, 0.3, 0.02, bounds)
