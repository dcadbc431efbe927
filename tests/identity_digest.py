"""Digest of every solve_sets result over a fixed grid of parameter points.

For every 3 <= q <= k <= 16 it solves --set all (sweep.solve_sets) at
float(theta_cr), theta_cr (1 - 1e-9), theta_cr (1 + 1e-9) and one seeded
theta on each side of theta_cr (random.Random(2030)), and prints the number
of results (solution rows plus rejected mirror roots) and a SHA-256 prefix
over float.hex of x, y, z, t and residual_full of every solution and of z
with the reason of every rejected root.  Two trees that print the same line
return the same bits at every one of these points.  pytest does not collect
this file; run it from the repository root with

    PYTHONPATH=src python tests/identity_digest.py [--refuse-partners]

--refuse-partners makes every exact._derived_roots call fail, so every root
known from another root (a root above 1 from its partner below 1, block set
q-m from set m) is found by its fallback instead: the isolation of the
reversed polynomial, or solve_im of set q-m.  The printed line must not
change.  To compare two trees, run the command in each checkout (once
plain, once with --refuse-partners) and compare the four lines.
"""
import hashlib
import random
import sys

from gibbstree import ModelParams, exact, solver, sweep, theta_critical


def _hex(v) -> str:
    return "-" if v is None else float(v).hex()


def points() -> list[ModelParams]:
    """The parameter points of the digest, in a fixed order."""
    rng = random.Random(2030)
    out = []
    for k in range(3, 17):
        for q in range(3, k + 1):
            t_cr = theta_critical(q, k)
            thetas = (t_cr, t_cr * (1.0 - 1e-9), t_cr * (1.0 + 1e-9),
                      rng.uniform(0.02, t_cr), rng.uniform(t_cr, 0.98))
            out += [ModelParams(q=q, k=k, theta=theta) for theta in thetas]
    return out


def digest(refuse_partners: bool = False) -> tuple[int, str]:
    """(number of results, SHA-256 hex digest) over every point."""
    rejected = []
    solve_im_prime = sweep.solve_im_prime

    def recording(params, m):
        sols, rej = solve_im_prime(params, m)
        rejected.extend(rej)
        return sols, rej

    sweep.solve_im_prime = recording
    if refuse_partners:
        # solve_im_reciprocal looks the name up in solver, _certified_roots in exact
        exact._derived_roots = solver._derived_roots = lambda *args: None
    h = hashlib.sha256()
    count = 0
    for p in points():
        h.update(f"{p.q} {p.k} {p.theta.hex()}\n".encode())
        rejected.clear()
        set_ids = sweep.parse_set_spec("all", p.q)
        for set_id, sols in zip(set_ids, sweep.solve_sets(p, set_ids)):
            for s in sols:
                h.update(f"{set_id.label()} {_hex(s.x)} {_hex(s.y)} {_hex(s.z)} {_hex(s.t)} "
                         f"{_hex(s.residual_full)}\n".encode())
            count += len(sols)
        for r in rejected:
            h.update(f"rejected {_hex(r.z)} {r.reason}\n".encode())
        count += len(rejected)
    return count, h.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest("--refuse-partners" in sys.argv[1:])
    print(f"{count} results, sha256 {hexdigest[:16]}")
