"""Reference implementations kept only to be diffed against.

Each module re-states a formulation that ``src/`` has replaced by a faster
one; the equivalence tests check the two agree exactly.
"""
