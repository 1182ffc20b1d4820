"""Naive enumeration oracles: slow, obviously-correct counts used to pin the
table-contraction counters."""

from sumprod import ElemSet


def naive_f_collision(X: ElemSet, Y: ElemSet, Z: ElemSet) -> int:
    f = X.field
    vals = [f.mul(x, f.add(y, z)) for x in X for y in Y for z in Z]
    return sum(1 for a in vals for b in vals if a == b)


def naive_bilinear(A: ElemSet, B: ElemSet, C: ElemSet, D: ElemSet) -> int:
    f = A.field
    return sum(1 for a in A for b in B for c in C for d in D
               if c == f.add(f.mul(a, b), d))


def naive_tautological(B: ElemSet, D: ElemSet, P: ElemSet) -> int:
    return naive_pair_popularity(B, B, D, P, "add")


def naive_pair_popularity(F: ElemSet, B: ElemSet, D: ElemSet, P: ElemSet,
                          op: str) -> int:
    """Tuples (a,b,c,d) in F^2 x B^2 with a∘b^-1 in D and a∘c, b∘c, a∘d,
    b∘d all in P; pairs with b = 0 have no ratio and are skipped."""
    f = F.field
    fop = f.add if op == "add" else f.mul
    total = 0
    for a in F:
        for b in F:
            if op == "mul" and b == 0:
                continue
            if (f.sub(a, b) if op == "add" else f.div(a, b)) not in D:
                continue
            for c in B:
                if fop(a, c) not in P or fop(b, c) not in P:
                    continue
                for d in B:
                    if fop(a, d) in P and fop(b, d) in P:
                        total += 1
    return total


def naive_membership_counts(T: ElemSet, B: ElemSet, P: ElemSet,
                            op: str) -> list:
    """[|{b in B : t∘b in P}| for t in T]; div skips b = 0."""
    fop = getattr(T.field, op)
    return [sum(1 for b in B if not (op == "div" and b == 0)
                and fop(t, b) in P) for t in T]
