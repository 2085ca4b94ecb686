"""Exact GF(2) toolkit for syndrome-encoded hypergraph product codes.

Submodules:
    f2              dense GF(2) linear algebra
    matio           alist matrix interchange format
    complexes       chain complexes and their graded tensor product
    classical       classical codes, repetition codes, the support search
    css             the one stabilizer code type, k, distance, alist bundles
    constructions   HGP, SEHGP, BSH, SSH/BSSH, RSH/BRSH, 3D XZZX builders,
                    each returning one BlockTaggedCss, a CssCode that
                    keeps its bands; code_distance
    soundness       reduced weights, soundness scans, single-shot trials
    noisesim        biased Pauli sampling and the experiment harness
    cli             the forge command line front end
"""

__version__ = "0.1.0"
