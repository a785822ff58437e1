"""The import path the frozen benchmark harness resolves (:mod:`.policy`).

Every technique — swapping, recomputation and parameter compression — is one
class in the one registry of :mod:`repro.swap.policies`, whose offline face
estimates it on a recorded trace.  Nothing in ``src/`` imports this package.
"""
