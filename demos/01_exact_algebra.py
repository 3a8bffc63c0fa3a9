#!/usr/bin/env python3
"""Demo 1: machine-verifying the Lie-algebraic skeleton, exactly.

Everything in this demo is computed over exact rational numbers — there are
no tolerances anywhere.  Four things are checked:

1. the eight polynomial vector fields X1..X8 on (x, v) close under the Lie
   bracket and reproduce all 28 stored commutator relations;
2. the eight traceless 3x3 matrices M1..M8 realise *identical* structure
   constants, exhibiting the algebra as sl(3, R);
3. the quasi-Lie scheme conditions for the fields Y1..Y8 hold, including the
   witness ad_Y3^k(Y6) = (-x)^(k+2) d/dv that leaves the span for k >= 2;
4. the two first integrals Lambda1, Lambda2 on the 5-copy prolonged space
   are annihilated by the prolonged generators.  Each factor F_abc of
   Lambda = F*F/(F*F) is a relative invariant, X(F) = mu*F, with the
   cofactor mu found by exact polynomial division; the cofactors of
   numerator and denominator cancel, so X(Lambda) = 0 exactly.  The
   quotient-rule numerator of X(Lambda) stays as the reference and as the
   fallback that decides, and sizes, any case the cofactors do not prove.
"""

from liesuper import (
    verify_isomorphism,
    verify_paper_table,
    verify_scheme,
    verify_lambda_annihilation,
)


def main():
    for report in (
        verify_paper_table(),
        verify_isomorphism(),
        verify_scheme(),
        verify_lambda_annihilation(all_fields=True),
    ):
        print(report.to_text())
        print()


if __name__ == "__main__":
    main()
