"""Exact GF(2) toolkit for syndrome-encoded hypergraph product codes.

Submodules:
    f2              dense GF(2) linear algebra
    matio           alist matrix interchange format
    complexes       chain complexes, graded tensor products, Betti numbers
    classical       classical codes, direct products, stock constructions
    css             the one stabilizer code type, parameters, Tanner decomposition
    constructions   HGP, SEHGP, BSH, SSH/BSSH, RSH/BRSH, 3D XZZX builders, distance
    soundness       reduced weights, soundness scans, single-shot trials
    noisesim        biased Pauli sampling and the experiment harness
    cli             the forge command line front end
"""

__version__ = "0.1.0"
