"""Build every code family from a rep(2) ring base and print a parameter
table: qubits, measured checks, logicals, and a bounded distance search.

Run from the repo root after `pip install -e .`:

    python3 demos/family_tour.py
"""
from codeforge import classical, cli
from codeforge import constructions as cons

BASE = classical.repetition_closed_loop(2)
# (family, distance search cap) in table order
TOUR = [("hgp", 2), ("sehgp", 4), ("bsh", 4), ("ssh", 2), ("bssh", 2),
        ("rsh1", 2), ("rsh2", 2), ("brsh1", 2), ("xzzx3d", 2)]


def main():
    print(f"{'family':8} {'n':>4} {'checks':>6} {'k':>4} {'d':>4}  notes")
    for name, cap in TOUR:
        code = cli.build_family(name, BASE)
        n, k = code.n, code.logical_count()
        d = cons.code_distance(code, cap, k)
        notes = []
        if code.paired:
            notes.append("XZZX-like rows")
        if "d_s" in code.metadata:
            notes.append(f"d_s={code.metadata['d_s']}")
        print(f"{name:8} {n:>4} {code.check_count():>6} {k:>4} {d!r:>4}"
              f"  {', '.join(notes)}")
    print()
    print("d values are exhaustive searches up to the shown cap; '> w'")
    print("means no logical representative of weight <= w exists.")


if __name__ == "__main__":
    main()
