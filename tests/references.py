"""Test-side references: small helpers that only tests call.

The grid's node numbering is the one ``make_plain_grid`` and
``make_grid_graph`` build, so tests can name nodes by coordinate.
"""


def grid_node_id(x: int, y: int, D: int) -> int:
    """Node id of grid coordinate (x, y), both in -D..D."""
    if not (-D <= x <= D and -D <= y <= D):
        raise ValueError(f"coordinate ({x},{y}) outside the grid")
    return (x + D) * (2 * D + 1) + (y + D)


def grid_coords(node: int, D: int) -> tuple[int, int]:
    """Grid coordinate (x, y) of a node id; the inverse of grid_node_id."""
    side = 2 * D + 1
    if not 0 <= node < side * side:
        raise ValueError(f"node {node} outside the grid")
    return node // side - D, node % side - D


def improvement_delta(g, values, x: int, z: int):
    """Improvement f(x) - f(z) of the step x -> z; may be negative."""
    if not g.has_edge(x, z):
        raise ValueError(f"{z} is not a neighbor of {x}")
    return values[x] - values[z]
