"""Hypothesis strategies for JSON values that loaders must survive."""
from hypothesis import strategies as st

# bools, which are ints to Python; ints past float range and past int64
EDGES = st.sampled_from([True, False, None, 0, -1, 1, 2**63, 10**400,
                         -10**400, 0.5, float("nan"), float("inf"),
                         -float("inf"), "", "1", [], {}])
NUMBERS = (st.booleans() | st.integers(-3, 10**6)
           | st.floats(allow_nan=True, allow_infinity=True))
VALUES = EDGES | st.recursive(
    st.none() | NUMBERS | st.text(max_size=5),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)
