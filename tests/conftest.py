from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from infgon import Arc, ArcSet, DividerSet, Window, mutate_pair, parse_document

DEMO = Path(__file__).resolve().parent.parent / "demos" / "example_sets.json"


def admissible_arcs(n: int, lo: int = -60, hi: int = 60, max_steps: int = 12):
    """Strategy for admissible arcs for modulus n with left endpoint in [lo, hi]."""
    d0 = 2 if n == 1 else n + 1
    return st.builds(
        lambda t, j: Arc(t, t + d0 + j * n),
        st.integers(lo, hi),
        st.integers(0, max_steps),
    )


@lru_cache(maxsize=None)
def demo():
    return parse_document(DEMO.read_bytes())


@lru_cache(maxsize=None)
def orbit() -> list[tuple[ArcSet, ArcSet]]:
    """The demo pair and its ten mutation steps by D on a fixed window."""
    doc = demo()
    d = DividerSet(doc.params, doc.sets["D"].explicit)
    x, y, w = doc.sets["X"], doc.sets["Ync"], Window(-80, 80)
    states = [(x, y)]
    for _ in range(10):
        x, y, _ = mutate_pair(x, y, d, w)
        states.append((x, y))
    return states
