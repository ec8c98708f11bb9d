"""The few graph searches the stack needs, over plain adjacency dicts.

A directed graph here is a mapping ``node -> {successor: data}`` (the
data is ignored except by :func:`dijkstra`) in which every successor is
itself a key; an undirected one maps each node onto its neighbors.
Iteration follows the dicts' insertion order, so each search visits
nodes and edges in a fixed order and breaks ties the way the textbook
graph libraries do; ``tests/topology/test_algorithms.py`` checks every
answer, ties and witnesses included, against such a library on random
graphs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set,
    Tuple,
)

Node = Hashable
Adjacency = Mapping[Node, Iterable[Node]]


def dijkstra(
    succ: Mapping[Node, Mapping[Node, Any]],
    source: Node,
    target: Node,
    weight: Callable[[Node, Node, Any], Optional[float]],
) -> Optional[Tuple[float, List[Node]]]:
    """Cheapest path ``source`` -> ``target``: ``(cost, path)``, or None.

    ``weight(u, v, data)`` prices the edge ``u -> v``; None hides it.
    Weights must be non-negative.  The heap breaks cost ties by push
    order, and a node keeps the predecessor of its first strictly
    cheapest push.
    """
    done: Dict[Node, float] = {}
    best = {source: 0}
    parent: Dict[Node, Node] = {}
    push = count()
    fringe = [(0, next(push), source)]
    while fringe:
        cost, __, node = heappop(fringe)
        if node in done:
            continue
        done[node] = cost
        if node == target:
            path = [target]
            while path[-1] in parent:
                path.append(parent[path[-1]])
            path.reverse()
            return cost, path
        for nxt, data in succ[node].items():
            step = weight(node, nxt, data)
            if step is None or nxt in done:
                continue
            total = cost + step
            if nxt not in best or total < best[nxt]:
                best[nxt] = total
                parent[nxt] = node
                heappush(fringe, (total, next(push), nxt))
    return None


def find_cycle(succ: Adjacency) -> Optional[List[Node]]:
    """A directed cycle as its node list, or None if the graph is acyclic.

    Depth-first from each not yet explored node in order, successors in
    order; the first edge back onto the current path closes the cycle,
    which starts at that edge's head.
    """
    explored: Set[Node] = set()
    for start in succ:
        if start in explored:
            continue
        path = [start]
        on_path = {start}
        visited = {start}
        stack = [iter(succ[start])]
        while stack:
            for head in stack[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head in visited or head in explored:
                    continue
                visited.add(head)
                on_path.add(head)
                path.append(head)
                stack.append(iter(succ[head]))
                break
            else:
                stack.pop()
                on_path.discard(path.pop())
        explored |= visited
    return None


def reachable(adj: Adjacency, source: Node) -> Set[Node]:
    """Every node reachable from ``source``, ``source`` included."""
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def connected_components(neighbors: Adjacency) -> List[Set[Node]]:
    """The connected components of an undirected graph, in node order."""
    components: List[Set[Node]] = []
    seen: Set[Node] = set()
    for node in neighbors:
        if node not in seen:
            component = reachable(neighbors, node)
            seen |= component
            components.append(component)
    return components
